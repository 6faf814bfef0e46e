"""Scalar reference implementations that only the tests call.

Each one computes a single value the slow, obvious way; the package's
blocked code paths are checked against them bit for bit.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from tagfusion.collection import Collection, images_with_tag
from tagfusion.estimators import ScoreTable, TagSimilarityModel, _kde_sigma, vote_tables
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
    query_vecs = {name: c.feature(name).matrix[ix : ix + 1] for name in wv.names}
    return float(distance_block(c, wv, query_vecs, np.array([ix]), normalizers)[0, io])


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
    scored: Collection | None = None,
) -> ScoreTable:
    """Early-fused voting scores for every candidate image of tag `w`."""
    return vote_tables(c, [w], wv, normalizers, k, scored)[w]


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
    scored: Collection | None = None,
) -> float:
    """Mean Gaussian kernel exp(-d^2 / sigma^2) from x to the other tagged images.

    sigma defaults to the median pairwise distance among the tagged images
    (seeded sample); the support sample is capped at `sample_cap`, also
    seeded. x's vector comes from `scored` (default: the source `c`).
    """
    qvec = (scored if scored is not None else c).vector(feature, x)
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
