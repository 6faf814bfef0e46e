"""Base tag relevance estimators.

The workhorse is neighbor voting: the fraction of an image's k visual
neighbors that carry the tag, minus the tag's frequency prior, so that
ubiquitous tags are suppressed. Early fusion substitutes the neighbor set
retrieved under a weighted combined distance. Three heterogeneous baselines
(tag position, semantic field via tag co-occurrence, kernel-density scoring
in a feature space) produce scores over the same candidate sets so they can
enter late fusion alongside the voting estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .collection import Collection, ImageRecord, images_with_tag, tag_prior
from .neighbors import (
    DistanceNormalizer,
    NeighborList,
    WeightVector,
    _combined_to_all,
    _distinct_pairs,
    knn,
    l1_to_all,
    pairwise_l1,
)


def ranking_of(scores: Mapping[str, float]) -> list[str]:
    """Canonical retrieval order: descending score, ties by ascending id."""
    return sorted(scores, key=lambda i: (-scores[i], i))


@dataclass
class ScoreTable:
    """Per-(tag, image) scores of one estimator over a candidate set.

    The candidate set is the set of images labeled with the tag in the
    scored collection. `meta` carries provenance such as the bounds used by
    MinMax normalization.
    """

    estimator: str
    tag: str
    scores: dict[str, float]
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for image_id, s in self.scores.items():
            if not math.isfinite(s):
                raise ValueError(
                    f"non-finite score for ({self.tag!r}, {image_id!r}) in {self.estimator!r}"
                )

    def __len__(self) -> int:
        return len(self.scores)

    def ids(self) -> frozenset[str]:
        return frozenset(self.scores)

    def ranking(self) -> list[str]:
        return ranking_of(self.scores)


# ---------------------------------------------------------------------------
# neighbor voting (single feature and early fused)
# ---------------------------------------------------------------------------


def neighbor_vote(c: Collection, nl: NeighborList, w: str, k: int) -> float:
    """Vote count over the requested k, minus the tag prior.

    The denominator stays at `k` even when fewer neighbors exist, so sparse
    collections do not inflate scores.
    """
    if len(c) == 0:
        raise ValueError("neighbor_vote needs a non-empty collection")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(nl.entries) > k:
        raise ValueError(f"neighbor list has {len(nl.entries)} entries for k={k}")
    labeled = images_with_tag(c, w)
    votes = 0
    for image_id, _ in nl.entries:
        if image_id not in c:
            raise ValueError(f"neighbor {image_id!r} not in collection")
        if image_id in labeled:
            votes += 1
    return votes / k - tag_prior(c, w)


def early_fused_score(
    c: Collection,
    x: str,
    w: str,
    wv: WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
    k: int,
) -> float:
    """Neighbor vote over the neighbor set retrieved by the combined distance."""
    nl = knn(c, wv, x, k, normalizers=normalizers)
    return neighbor_vote(c, nl, w, k)


def _top_k(dist: np.ndarray, k: int, id_rank: np.ndarray) -> np.ndarray:
    """Mask of the k smallest entries of each row, nan slots never taken.

    Among entries equal to the k-th smallest distance, those with the
    lowest `id_rank` fill the remaining slots, which is knn's
    distance-then-id order. Rows with fewer than k non-nan entries take
    them all.
    """
    if k >= dist.shape[1]:
        return ~np.isnan(dist)
    kth = np.array([np.partition(row, k - 1)[k - 1] for row in dist])[:, None]  # nan sorts last
    taken = dist < kth
    tie = dist == kth
    room = k - taken.sum(axis=1)
    for r in np.nonzero(tie.sum(axis=1) > room)[0]:  # more ties than free slots
        cols = np.nonzero(tie[r])[0]
        tie[r, cols[np.argsort(id_rank[cols])[room[r] :]]] = False
    return taken | tie


def _distance_block(
    c: Collection,
    scored: Collection,
    block: Sequence[str],
    metric: str | WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
) -> np.ndarray:
    """(len(block), n) distances from scored images to the source; a
    query's own slot is nan."""
    own = np.array([c.index_of(x) if x in c else -1 for x in block])
    names = [metric] if isinstance(metric, str) else list(dict.fromkeys(metric.names))
    qvecs = {f: np.stack([scored.vector(f, x) for x in block]) for f in names}
    if isinstance(metric, str):
        dist = pairwise_l1(qvecs[metric], c.feature(metric).matrix)
    else:
        dist = _combined_to_all(c, metric, qvecs, own, normalizers or {})
    rows = np.nonzero(own >= 0)[0]
    dist[rows, own[rows]] = np.nan
    return dist


def vote_tables(
    c: Collection,
    tags: Sequence[str],
    metric: str | WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
    k: int,
    scored: Collection | None = None,
) -> dict[str, ScoreTable]:
    """Neighbor-vote tables of every tag in `tags`, one top-k pass per image.

    `metric` is a feature name (raw L1, a `tagrel:<feature>` table) or a
    WeightVector (combined distance, an `earlyfuse` table), as in `knn`.
    Neighbors and tag priors come from the source `c`; candidates, the
    images of `scored` (default: the source) that carry a requested tag,
    are searched once each, 64 at a time, whatever number of tags they
    carry. Votes are counted only for the requested tags a candidate
    carries, so memory does not grow with the vocabulary. An image present
    in both collections is never its own neighbor. Each score is
    bit-identical to neighbor_vote over knn for its candidate.
    """
    if len(c) == 0:
        raise ValueError("empty source collection")
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = scored if scored is not None else c
    wanted = set(tags)
    cand = sorted(set().union(*(images_with_tag(scored, w) for w in wanted)))
    if isinstance(metric, str):
        estimator, meta = f"tagrel:{metric}", {}
    else:
        estimator, meta = "earlyfuse", {"weights": metric}
    columns: dict[str, np.ndarray] = {}  # tag -> indices of its source images
    votes: dict[str, list[np.ndarray]] = {w: [] for w in wanted}
    for start in range(0, len(cand), 64):
        block = cand[start : start + 64]
        taken = _top_k(_distance_block(c, scored, block, metric, normalizers), k, c.id_rank)
        carriers: dict[str, list[int]] = {}
        for b, x in enumerate(block):
            for w in wanted.intersection(scored.record(x).tags):
                carriers.setdefault(w, []).append(b)
        for w, bs in carriers.items():
            if w not in columns:
                columns[w] = np.array([c.index_of(x) for x in images_with_tag(c, w)], dtype=int)
            votes[w].append(taken[np.ix_(bs, columns[w])].sum(axis=1))
    tables: dict[str, ScoreTable] = {}
    for w in tags:
        ids = sorted(images_with_tag(scored, w))
        counts = np.concatenate(votes[w]) if votes[w] else np.zeros(0)
        scores = counts / k - tag_prior(c, w)
        tables[w] = ScoreTable(estimator, w, dict(zip(ids, scores.tolist())), dict(meta))
    return tables


def neighbor_vote_table(
    c: Collection,
    w: str,
    feature: str,
    k: int,
    scored: Collection | None = None,
) -> ScoreTable:
    """Neighbor-vote scores for every candidate image of tag `w`.

    Neighbors are drawn from the source collection `c`; candidates (images
    labeled `w`) live in `scored`, which defaults to the source itself.
    Bit-identical to calling neighbor_vote over knn per candidate.
    """
    return vote_tables(c, [w], feature, None, k, scored)[w]


def early_fused_table(
    c: Collection,
    w: str,
    wv: WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
    k: int,
    scored: Collection | None = None,
) -> ScoreTable:
    """Early-fused voting scores for every candidate image of tag `w`.

    Bit-identical to early_fused_score per candidate.
    """
    return vote_tables(c, [w], wv, normalizers, k, scored)[w]


# ---------------------------------------------------------------------------
# tag position baseline
# ---------------------------------------------------------------------------


def tag_position_score(rec: ImageRecord, w: str) -> float:
    """1 - (pos-1)/T with 1-based position: earlier tags score higher."""
    try:
        pos = rec.tags.index(w) + 1
    except ValueError:
        raise ValueError(f"tag {w!r} absent from image {rec.image_id!r}") from None
    return 1.0 - (pos - 1) / len(rec.tags)


def tag_position_table(
    c: Collection,
    w: str,
    scored: Collection | None = None,
) -> ScoreTable:
    scored = scored if scored is not None else c
    cand = sorted(images_with_tag(scored, w))
    scores = {x: tag_position_score(scored.record(x), w) for x in cand}
    return ScoreTable(estimator="tagposition", tag=w, scores=scores)


# ---------------------------------------------------------------------------
# semantic field baseline (tag co-occurrence similarity)
# ---------------------------------------------------------------------------


class TagSimilarityModel:
    """Pairwise tag similarity in [0, 1] from co-occurrence statistics.

    sim(w, t) = exp(-ngd) with the normalized co-occurrence distance
    ngd = (max(log fw, log ft) - log fwt) / (log N - min(log fw, log ft)),
    where fw, ft, fwt are document frequencies and N the collection size.
    Tags that never co-occur, or fall below `min_count`, get similarity 0;
    sim(w, w) = 1 for any tag present in the reference collection.
    """

    def __init__(
        self,
        n_images: int,
        tag_sets: Mapping[str, frozenset[str]],
        min_count: int = 1,
    ) -> None:
        if n_images < 2:
            raise ValueError("similarity model needs at least 2 reference images")
        self.n_images = n_images
        self.tag_sets = dict(tag_sets)
        self.min_count = min_count
        self._cache: dict[tuple[str, str], float] = {}

    @classmethod
    def from_pair_table(cls, sims: Mapping[tuple[str, str], float]) -> "TagSimilarityModel":
        """Model with explicitly fixed pair similarities (testing/synthetic use)."""
        model = cls.__new__(cls)
        model.n_images = 2
        model.tag_sets = {}
        model.min_count = 1
        model._cache = {}
        for (w, t), s in sims.items():
            model._cache[(w, t)] = float(s)
            model._cache[(t, w)] = float(s)
        return model

    def sim(self, w: str, t: str) -> float:
        key = (w, t) if w <= t else (t, w)
        if key in self._cache:
            return self._cache[key]
        value = self._compute(*key)
        self._cache[key] = value
        return value

    def _compute(self, w: str, t: str) -> float:
        sw = self.tag_sets.get(w, frozenset())
        st = self.tag_sets.get(t, frozenset())
        fw, ft = len(sw), len(st)
        if w == t:
            return 1.0 if fw > 0 else 0.0
        if fw < max(self.min_count, 1) or ft < max(self.min_count, 1):
            return 0.0
        fwt = len(sw & st)
        if fwt == 0:
            return 0.0
        numer = max(math.log(fw), math.log(ft)) - math.log(fwt)
        if numer <= 0.0:
            return 1.0
        denom = math.log(self.n_images) - min(math.log(fw), math.log(ft))
        return math.exp(-numer / denom)


def build_tag_similarity(c: Collection, min_count: int = 1) -> TagSimilarityModel:
    if len(c) < 2:
        raise ValueError("tag similarity needs a collection of at least 2 images")
    return TagSimilarityModel(len(c), c.tag_index, min_count=min_count)


def semantic_field_score(rec: ImageRecord, w: str, model: TagSimilarityModel) -> float:
    """Mean similarity of `w` to the image's other tags; 0 when `w` stands alone."""
    if w not in rec.tags:
        raise ValueError(f"tag {w!r} absent from image {rec.image_id!r}")
    others = [t for t in rec.tags if t != w]
    if not others:
        return 0.0
    return sum(model.sim(w, t) for t in others) / len(others)


def semantic_field_table(
    c: Collection,
    w: str,
    model: TagSimilarityModel,
    scored: Collection | None = None,
) -> ScoreTable:
    scored = scored if scored is not None else c
    cand = sorted(images_with_tag(scored, w))
    scores = {x: semantic_field_score(scored.record(x), w, model) for x in cand}
    return ScoreTable(estimator="semanticfield", tag=w, scores=scores)


# ---------------------------------------------------------------------------
# kernel-density tag ranking baseline
# ---------------------------------------------------------------------------


def _kde_sigma(
    c: Collection, w: str, feature: str, sample_cap: int, seed: int
) -> float:
    """Median pairwise L1 distance over a seeded sample of tagged images."""
    members = sorted(images_with_tag(c, w))
    if len(members) < 2:
        return 1.0
    matrix = c.feature(feature).matrix
    idx = np.array([c.index_of(m) for m in members])
    n_pairs_total = len(members) * (len(members) - 1) // 2
    if n_pairs_total <= sample_cap:
        ii, jj = np.triu_indices(len(members), k=1)
    else:
        ii, jj = _distinct_pairs(np.random.default_rng([seed, 1]), len(members), sample_cap)
    d = np.abs(matrix[idx[ii]] - matrix[idx[jj]]).sum(axis=1)
    sigma = float(np.median(d))
    return sigma if sigma > 0.0 else 1.0


def _kde_score_for_vector(
    c: Collection,
    w: str,
    feature: str,
    qvec: np.ndarray,
    exclude_id: str,
    sigma: float | None,
    sample_cap: int,
    seed: int,
) -> float:
    support = sorted(images_with_tag(c, w) - {exclude_id})
    if not support:
        raise ValueError(f"tag {w!r} has no support images besides {exclude_id!r}")
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
    d = l1_to_all(matrix[rows], qvec)
    return float(np.mean(np.exp(-(d * d) / (sigma * sigma))))


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
    (seeded sample); the support sample is capped at `sample_cap`, also seeded.
    """
    return _kde_score_for_vector(
        c, w, feature, c.vector(feature, x), x, sigma, sample_cap, seed
    )


def kde_table(
    c: Collection,
    w: str,
    feature: str,
    sigma: float | None = None,
    sample_cap: int = 500,
    seed: int = 0,
    scored: Collection | None = None,
) -> ScoreTable:
    """Kernel-density scores for every candidate of `w` (shared default sigma)."""
    scored = scored if scored is not None else c
    cand = sorted(images_with_tag(scored, w))
    if sigma is None:
        sigma = _kde_sigma(c, w, feature, sample_cap, seed)
    scores = {
        x: _kde_score_for_vector(
            c, w, feature, scored.vector(feature, x), x, sigma, sample_cap, seed
        )
        for x in cand
    }
    return ScoreTable(
        estimator=f"tagranking:{feature}",
        tag=w,
        scores=scores,
        meta={"sigma": sigma},
    )
