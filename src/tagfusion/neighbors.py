"""Exact nearest neighbors under L1 and weighted combinations of features.

Search is an exhaustive scan: distances to every other image, sorted with a
canonical tie rule (ascending image id). The combined distance follows the
convex-combination form sum_i lambda_i * norm_i(d_i), where each per-feature
distance may be passed through raw, MinMax-scaled against calibrated bounds,
or rank-normalized as the fraction of images strictly closer to the query.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .collection import Collection

SIMPLEX_ATOL = 1e-9

NORMALIZER_MODES = ("minmax", "rankmax", "none")


class CalibrationError(ValueError):
    """Distance normalizer cannot be calibrated on this data."""


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative fusion weights over named features or estimators.

    Always lives on the simplex: weights sum to 1 within 1e-9. Build with
    `normalized`, `uniform`, or `one_hot`; positional order is significant
    and duplicate names are permitted.
    """

    names: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if not self.names:
            raise ValueError("empty weight vector")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > SIMPLEX_ATOL:
            raise ValueError("weights must sum to 1 within 1e-9; use normalized()")

    @staticmethod
    def normalized(names: Sequence[str], weights: Sequence[float]) -> "WeightVector":
        arr = [float(w) for w in weights]
        if any(w < 0 for w in arr):
            raise ValueError("weights must be nonnegative")
        total = sum(arr)
        if total <= 0:
            raise ValueError("weights sum to zero; cannot normalize")
        return WeightVector(tuple(names), tuple(w / total for w in arr))

    @staticmethod
    def uniform(names: Sequence[str]) -> "WeightVector":
        m = len(names)
        return WeightVector.normalized(tuple(names), (1.0,) * m)

    @staticmethod
    def one_hot(names: Sequence[str], hot: str) -> "WeightVector":
        if hot not in names:
            raise ValueError(f"{hot!r} not among {tuple(names)}")
        return WeightVector(tuple(names), tuple(1.0 if n == hot else 0.0 for n in names))


@dataclass(frozen=True)
class NeighborList:
    """Up to k nearest images to a query, distance-ascending, id tie rule."""

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.entries)


@dataclass(frozen=True)
class DistanceNormalizer:
    """Per-feature distance normalization state.

    minmax: affine map against calibrated [lower, upper), clamped to [0, 1].
    rankmax: stateless; normalized value is the fraction of candidate images
    strictly closer to the query, so it is invariant to any strictly monotone
    transform of the raw distances.
    none: pass-through.
    """

    mode: str
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in NORMALIZER_MODES:
            raise ValueError(f"unknown normalizer mode {self.mode!r}")
        if self.mode == "minmax" and not self.lower < self.upper:
            raise CalibrationError("minmax bounds require lower < upper")

    def apply(self, d: np.ndarray) -> np.ndarray:
        """Normalize distances `d` in place and return it; nan entries stay nan.

        RankMax works on (B, n) blocks: each row's candidates are its
        non-nan entries.
        """
        if self.mode == "minmax":
            d -= self.lower
            d /= self.upper - self.lower
            np.clip(d, 0.0, 1.0, out=d)
        elif self.mode == "rankmax":  # fraction of candidate images strictly closer
            for row in d:
                valid = ~np.isnan(row)
                candidates = np.sort(row[valid])
                row[valid] = np.searchsorted(candidates, row[valid], side="left") / len(candidates)
        return d


def pairwise_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (len(a), len(b)) L1 distance matrix, computed one row of `a` at a time.

    One row's (len(b), dim) difference block stays in cache. On a 2-core Xeon
    with numpy 2.4, 64-row chunks over 1k-8k x 8-64 matrices measured up to
    2x slower.
    """
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for i, row in enumerate(a):
        out[i] = np.abs(row - b).sum(axis=1)
    return out


def _distinct_pairs(rng: np.random.Generator, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """`size` seeded index pairs (i, j) over range(n) with i != j.

    Clashing pairs redraw j until none is left, so the rng call sequence (and
    with it every bound or bandwidth computed from the pairs) is fixed by the
    seed.
    """
    i = rng.integers(0, n, size=size)
    j = rng.integers(0, n, size=size)
    while True:
        clash = i == j
        if not clash.any():
            return i, j
        j[clash] = rng.integers(0, n, size=int(clash.sum()))


def _percentile_upper(distances: np.ndarray) -> float:
    # 99.5th percentile rather than the max, for outlier robustness
    return float(np.percentile(distances, 99.5))


def calibrate_normalizer(
    c: Collection,
    feature: str,
    mode: str,
    sample_size: int = 10000,
    seed: int = 0,
) -> DistanceNormalizer:
    """Fit the per-feature normalizer; only minmax carries state.

    MinMax bounds are lower = 0 and upper = the 99.5th percentile of L1
    distances over `sample_size` seeded random image pairs.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if mode != "minmax":
        return DistanceNormalizer(mode=mode)
    if len(c) < 2:
        raise CalibrationError("minmax calibration needs at least 2 images")
    matrix = c.feature(feature).matrix
    i, j = _distinct_pairs(np.random.default_rng(seed), len(c), sample_size)
    dists = np.abs(matrix[i] - matrix[j]).sum(axis=1)
    upper = _percentile_upper(dists)
    if upper <= 0.0:
        raise CalibrationError(
            f"feature {feature!r}: degenerate upper bound (constant feature?)"
        )
    return DistanceNormalizer(mode="minmax", lower=0.0, upper=upper)


def calibrate_normalizers(
    c: Collection,
    features: Sequence[str],
    mode: str,
    sample_size: int = 10000,
    seed: int = 0,
) -> dict[str, DistanceNormalizer]:
    return {
        f: calibrate_normalizer(c, f, mode, sample_size=sample_size, seed=seed + k)
        for k, f in enumerate(features)
    }


def distance_block(
    c: Collection,
    metric: str | WeightVector,
    query_vecs: Mapping[str, np.ndarray],
    own: np.ndarray,
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> np.ndarray:
    """(B, n) distances from B query rows to every image of `c`.

    `metric` is a feature name (raw L1) or a WeightVector (the combined
    distance; normalizers default to pass-through). `query_vecs` maps each
    feature to its (B, dim) query rows, and `own[b]` is the index of query b
    in `c`, or -1 when it is not there. That slot is nan in every feature's
    block before normalization: a query is never its own neighbor nor a
    RankMax candidate.
    """
    if isinstance(metric, str):
        d = pairwise_l1(query_vecs[metric], c.feature(metric).matrix)
        d[own >= 0, own[own >= 0]] = np.nan
        return d
    combined = np.zeros((len(own), len(c)), dtype=np.float64)
    for name, lam in zip(metric.names, metric.weights):
        d = distance_block(c, name, query_vecs, own)
        (normalizers or {}).get(name, DistanceNormalizer(mode="none")).apply(d)
        d *= lam
        combined += d
        del d  # one feature's block alive at a time
    return combined


def top_k(dist: np.ndarray, k: int, id_rank: np.ndarray) -> np.ndarray:
    """Mask of the k smallest entries of each row, nan slots never taken.

    Among entries equal to the k-th smallest distance, those with the
    lowest `id_rank` fill the remaining slots, which is knn's
    distance-then-id order. Rows with fewer than k non-nan entries take
    them all.
    """
    if k >= dist.shape[1]:
        return ~np.isnan(dist)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]  # nan sorts last
    taken = dist < kth
    tie = dist == kth
    room = k - taken.sum(axis=1)
    for r in np.nonzero(tie.sum(axis=1) > room)[0]:  # more ties than free slots
        cols = np.nonzero(tie[r])[0]
        tie[r, cols[np.argsort(id_rank[cols])[room[r] :]]] = False
    return taken | tie


def knn(
    c: Collection,
    feature_or_weights: str | WeightVector,
    query_id: str,
    k: int,
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> NeighborList:
    """Exact top-k neighbors of `query_id`, excluding the query itself.

    A plain feature name searches raw L1; a WeightVector searches the
    combined distance (normalizers default to pass-through). Requests larger
    than the number of other images return all of them. Deterministic:
    distance ascending, then ascending image id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    qi = c.index_of(query_id)
    query_vecs = {f: fm.matrix[qi : qi + 1] for f, fm in c.features.items()}
    dist = distance_block(c, feature_or_weights, query_vecs, np.array([qi]), normalizers)[0]
    idx = np.nonzero(~np.isnan(dist))[0]
    take = idx[np.lexsort((c.id_rank[idx], dist[idx]))[:k]]
    entries = tuple((c.images[i].image_id, float(dist[i])) for i in take)
    return NeighborList(query_id=query_id, entries=entries)
