"""Exact nearest neighbors under L1 and weighted combinations of features.

Search is an exhaustive scan: distances to every other image, sorted with a
canonical tie rule (ascending image id). The combined distance follows the
convex-combination form sum_i lambda_i * norm_i(d_i), where each per-feature
distance may be passed through raw, MinMax-scaled against calibrated bounds,
or rank-normalized as the fraction of images strictly closer to the query.

The L1 kernel, RankMax and the top-k masks run with numpy's ufunc buffer
cut to about one distance row, min(caller's size, 16 * ceil(n / 16))
elements for n columns, and restore the caller's size on the way out. With
numpy's default of 8192 elements, a buffer that holds several rows makes
numpy 2 copy both broadcast operands of `q[:, j, None] - bT[j]` into it
before it subtracts: on (32, 1000) blocks that subtraction took 36-42 us
against 10-11 us with the cut (numpy 2.4, a 2-core x86-64 host). From about
4000 columns on, rows are too long for that path and the cut changes
nothing. The output bits cannot change: the buffer size can only regroup a
float reduction that needs a dtype cast, and inside the cut there are only
elementwise float operations, integer sorts and exact bool-to-int counts.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .collection import Collection

SIMPLEX_ATOL = 1e-9

NORMALIZER_MODES = ("minmax", "rankmax", "none")

_CHUNK_BYTES = 256 * 1024  # output bytes per row chunk of the L1 and RankMax kernels


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
        if math.isinf(total):  # finite weights whose sum overflows
            top = max(arr)
            arr = [w / top for w in arr]
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
            block = np.ascontiguousarray(d)
            rows = _chunk_rows(d.shape[1])
            with _row_buffer(d.shape[1]):
                for r in range(0, len(block), rows):
                    _rankmax_rows(block[r : r + rows])
            if block is not d:
                d[...] = block
        return d


@contextmanager
def _row_buffer(n: int) -> Iterator[None]:
    """Run the block with numpy's ufunc buffer cut to about one n-element
    row (see the module docstring), restoring the caller's size also when
    the block raises. `np.errstate` would not do: it restores the buffer
    size only on numpy 2."""
    old = np.setbufsize(min(np.getbufsize(), 16 * max(1, -(-n // 16))))
    try:
        yield
    finally:
        np.setbufsize(old)


def _chunk_rows(n: int) -> int:
    """Rows of an n-column float64 block that fit in _CHUNK_BYTES (at least 1)."""
    return max(1, _CHUNK_BYTES // (8 * max(n, 1)))


def _rankmax_rows(d: np.ndarray) -> None:
    """RankMax of a C-contiguous (B, n) block in place: one sort, ties share a rank.

    Nan slots rank as +inf; a real +inf candidate ties with them and still
    gets the count of finite candidates as its rank. Each row is sorted as
    int64 keys: an entry's float bit pattern with its low ceil(log2 n) bits
    replaced by its column, which orders nonnegative floats and +inf as
    their values and carries the permutation along. Values gathered through
    it that fail to come out non-decreasing (two values differing only in
    the replaced bits, or negative values) send the block to an argsort.
    An entry's rank is the start of its tie run in the sorted values; a
    block with no tie whose rows all have the same number of candidates
    takes one shared row of ranks instead.
    """
    B, n = d.shape
    missing = np.isnan(d)
    d[missing] = np.inf
    count = n - missing.sum(axis=1)
    low = (1 << (n - 1).bit_length()) - 1
    row_start = np.arange(B)[:, None] * n
    flat = d.view(np.int64) & ~low
    flat |= np.arange(n)
    flat.sort(axis=1)
    flat &= low
    flat += row_start
    rank = d.ravel()[flat]  # sorted values, then tie-run starts, then ranks
    rising = rank[:, 1:] > rank[:, :-1]
    if rising.all() and (count == count[0]).all():
        d.ravel()[flat] = np.arange(n, dtype=np.float64) / max(count[0], 1)
    else:
        if not (rank[:, 1:] >= rank[:, :-1]).all():
            flat = np.argsort(d, axis=1)
            flat += row_start
            rank = d.ravel()[flat]
        new_run = rank[:, 1:] != rank[:, :-1]
        rank[:, :1] = 0.0
        np.multiply(new_run, np.arange(1.0, n), out=rank[:, 1:])
        np.maximum.accumulate(rank, axis=1, out=rank)
        rank /= np.maximum(count[:, None], 1)
        d.ravel()[flat] = rank
    d[missing] = np.nan


def _abs_diff(q: np.ndarray, bT: np.ndarray, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (rows, n) term |q[:, j] - bT[j]| of dimension j, in `out` if given."""
    t = np.subtract(q[:, j, None], bT[j], out=out)
    return np.abs(t, out=t)


def _l1_sum(q: np.ndarray, bT: np.ndarray, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over dimensions lo..hi-1 of |q[:, j] - bT[j]|, in numpy's pairwise order.

    This is the order of numpy's row sum (`pairwise_sum`): sequential below
    8 terms; up to 128 terms, eight strided accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus the remainder; beyond that,
    split at half rounded down to a multiple of 8. Terms are folded as they
    arrive, and the leftmost partial sum lives in `out`.
    """
    n = hi - lo
    if n < 8:
        acc = _abs_diff(q, bT, lo, out)
        for j in range(lo + 1, hi):
            acc += _abs_diff(q, bT, j)
        return acc
    if n > 128:
        half = n // 2 - (n // 2) % 8
        acc = _l1_sum(q, bT, lo, lo + half, out)
        acc += _l1_sum(q, bT, lo + half, hi)
        return acc
    acc = _lanes(q, bT, lo, hi - n % 8, 8, out)
    for j in range(hi - n % 8, hi):
        acc += _abs_diff(q, bT, j)
    return acc


def _lanes(
    q: np.ndarray, bT: np.ndarray, first: int, stop: int, width: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise sum ((r0+r1)+(r2+r3))+... of `width` lanes, where lane i
    accumulates dimensions first+i, first+i+8, ... below `stop` in turn."""
    if width > 1:
        acc = _lanes(q, bT, first, stop, width // 2, out)
        acc += _lanes(q, bT, first + width // 2, stop, width // 2)
        return acc
    acc = _abs_diff(q, bT, first, out)
    for j in range(first + 8, stop, 8):
        acc += _abs_diff(q, bT, j)
    return acc


def pairwise_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (len(a), len(b)) L1 distance matrix, bit-identical to numpy's row sums.

    Rows of `a` go in chunks of _CHUNK_BYTES output; each dimension adds a
    (rows, len(b)) term against `b` transposed, summed in the fixed order
    of `_l1_sum`, so every entry equals `np.abs(a[i] - b).sum(axis=1)`.
    """
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    if a.shape[1] == 0:
        out.fill(0.0)
        return out
    bT = np.ascontiguousarray(b.T)
    rows = _chunk_rows(b.shape[0])
    with _row_buffer(b.shape[0]):
        for r in range(0, a.shape[0], rows):
            _l1_sum(a[r : r + rows], bT, 0, a.shape[1], out[r : r + rows])
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
    """The 99.5th percentile of finite `distances` (rather than the max, for
    outlier robustness), bit for bit as np.percentile's default linear
    method takes it, from one partition: the virtual index is
    v = (n - 1) * 0.995, and with a, b the order statistics at floor(v) and
    the next and t = v - floor(v), the value is a + (b - a) * t, or
    b - (b - a) * (1 - t) when t >= 0.5."""
    n = len(distances)
    v = (n - 1) * 0.995
    lo = math.floor(v)
    hi = min(lo + 1, n - 1)
    part = np.partition(distances, (lo, hi))
    a, b, t = float(part[lo]), float(part[hi]), v - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


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
    rows: np.ndarray,
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> np.ndarray:
    """(B, n) distances from the images at collection rows `rows` to every image of `c`.

    `metric` is a feature name (raw L1) or a WeightVector (the combined
    distance; normalizers default to pass-through). Each query's own slot,
    column `rows[b]` of row b, is nan in every feature's block before
    normalization: a query is never its own neighbor nor a RankMax
    candidate. A feature of weight 0 is skipped; its block would add only
    zeros while its distances are finite.
    """
    if isinstance(metric, str):
        matrix = c.feature(metric).matrix
        d = pairwise_l1(matrix[rows], matrix)
        d[np.arange(len(rows)), rows] = np.nan
        return d
    combined = np.zeros((len(rows), len(c)), dtype=np.float64)
    for name, lam in zip(metric.names, metric.weights):
        if lam == 0.0:
            continue
        d = distance_block(c, name, rows)
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
    with _row_buffer(dist.shape[1]):
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
    dist = distance_block(c, feature_or_weights, np.array([qi]), normalizers)[0]
    idx = np.nonzero(~np.isnan(dist))[0]
    take = idx[np.lexsort((c.id_rank[idx], dist[idx]))[:k]]
    entries = tuple((c.images[i].image_id, float(dist[i])) for i in take)
    return NeighborList(query_id=query_id, entries=entries)
