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


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Manhattan distance sum |a_j - b_j|; symmetric, zero iff a == b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite components")
    return float(np.abs(a - b).sum())


def l1_to_all(matrix: np.ndarray, query: np.ndarray, chunk: int = 512) -> np.ndarray:
    """L1 distance from `query` to every row of `matrix`."""
    n = matrix.shape[0]
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = np.abs(matrix[start:stop] - query).sum(axis=1)
    return out


def pairwise_l1(a: np.ndarray, b: np.ndarray, chunk: int = 1) -> np.ndarray:
    """Dense (len(a), len(b)) L1 distance matrix, computed in row chunks.

    One row per chunk by default: its (len(b), dim) difference block stays in
    cache. On a 2-core Xeon with numpy 2.4, 64-row chunks over 1k-8k x 8-64
    matrices measured up to 2x slower.
    """
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for start in range(0, a.shape[0], chunk):
        stop = min(start + chunk, a.shape[0])
        out[start:stop] = np.abs(a[start:stop, None, :] - b[None, :, :]).sum(axis=2)
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
    if mode not in NORMALIZER_MODES:
        raise ValueError(f"unknown normalizer mode {mode!r}")
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


def _normalized_l1(
    c: Collection, name: str, query_vecs: np.ndarray, own: np.ndarray, norm: DistanceNormalizer
) -> np.ndarray:
    """(B, n) L1 distances of feature `name` passed through `norm`; RankMax
    skips the query's own slot `own[b]` (-1: none) as a candidate."""
    d = pairwise_l1(query_vecs, c.feature(name).matrix)
    if norm.mode == "minmax":
        d -= norm.lower
        d /= norm.upper - norm.lower
        np.clip(d, 0.0, 1.0, out=d)
    elif norm.mode == "rankmax":  # fraction of candidate images strictly closer
        for b, row in enumerate(d):
            candidates = np.delete(row, own[b]) if own[b] >= 0 else row
            if len(candidates) == 0:
                raise ValueError("rankmax normalization needs at least one candidate image")
            d[b] = np.searchsorted(np.sort(candidates), row, side="left") / len(candidates)
    return d


def _combined_to_all(
    c: Collection,
    wv: WeightVector,
    query_vecs: Mapping[str, np.ndarray],
    own: np.ndarray,
    normalizers: Mapping[str, DistanceNormalizer],
) -> np.ndarray:
    """(B, n) combined distances from B queries to every image of `c`.

    `query_vecs` maps each feature to its (B, dim) query rows. `own[b]` is
    the index of query b in `c`, or -1 when it is not there; that slot is
    nan and is no RankMax candidate.
    """
    rows = np.nonzero(own >= 0)[0]
    combined = np.zeros((len(own), len(c)), dtype=np.float64)
    for name, lam in zip(wv.names, wv.weights):
        norm = normalizers.get(name, DistanceNormalizer(mode="none"))
        d = _normalized_l1(c, name, query_vecs[name], own, norm)
        d *= lam
        combined += d
        del d  # one feature's block alive at a time
    combined[rows, own[rows]] = np.nan
    return combined


def combined_distance(
    c: Collection,
    x: str,
    x_other: str,
    wv: WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> float:
    """Weighted combination sum_i lambda_i * norm_i(d_i(x, x_other))."""
    ix = c.index_of(x)
    io = c.index_of(x_other)
    query_vecs = {name: c.feature(name).matrix[ix : ix + 1] for name in wv.names}
    combined = _combined_to_all(c, wv, query_vecs, np.array([ix]), normalizers or {})
    return float(combined[0, io])


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
    if isinstance(feature_or_weights, str):
        matrix = c.feature(feature_or_weights).matrix
        dist = l1_to_all(matrix, matrix[qi])
        dist[qi] = np.nan
    else:
        wv = feature_or_weights
        query_vecs = {name: c.feature(name).matrix[qi : qi + 1] for name in wv.names}
        dist = _combined_to_all(c, wv, query_vecs, np.array([qi]), normalizers or {})[0]
    return _neighbor_list_from_distances(c, query_id, dist, k)


def _neighbor_list_from_distances(
    c: Collection, query_id: str, dist: np.ndarray, k: int
) -> NeighborList:
    """Assemble a NeighborList from a distance vector (query slot = nan)."""
    valid = ~np.isnan(dist)
    idx = np.nonzero(valid)[0]
    order = np.lexsort((c.id_rank[idx], dist[idx]))
    take = idx[order[: min(k, len(idx))]]
    entries = tuple((c.images[i].image_id, float(dist[i])) for i in take)
    return NeighborList(query_id=query_id, entries=entries)
