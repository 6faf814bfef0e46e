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
    _distinct_pairs,
    distance_block,
    knn,
    pairwise_l1,
    top_k,
)


@dataclass
class ScoreTable:
    """Scores of one estimator for one tag over its candidate images.

    `ids` are the candidates, the images labeled with the tag, as a strictly
    increasing tuple; `scores` is the float64 vector aligned with them.
    `meta` carries provenance such as the bounds used by MinMax
    normalization.
    """

    estimator: str
    tag: str
    ids: tuple[str, ...]
    scores: np.ndarray
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids = tuple(self.ids)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.ids),):
            raise ValueError(f"{len(self.ids)} ids for scores of shape {self.scores.shape}")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError(f"ids of {self.estimator!r} for {self.tag!r} must increase strictly")
        bad = np.flatnonzero(~np.isfinite(self.scores))
        if len(bad):
            raise ValueError(
                f"non-finite score for ({self.tag!r}, {self.ids[bad[0]]!r}) in {self.estimator!r}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def order(self) -> np.ndarray:
        """Positions in retrieval order: descending score, ties by ascending
        id (a stable sort of the id-sorted candidates)."""
        return np.argsort(-self.scores, kind="stable")

    def ranking(self) -> list[str]:
        return [self.ids[i] for i in self.order().tolist()]


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


def vote_tables(
    c: Collection,
    tags: Sequence[str],
    metric: str | WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
    k: int,
) -> dict[str, ScoreTable]:
    """Neighbor-vote tables of every tag in `tags`, one top-k pass per image.

    `metric` is a feature name (raw L1, a `tagrel:<feature>` table) or a
    WeightVector (combined distance, an `earlyfuse` table), as in `knn`.
    Candidates, the images of `c` that carry a requested tag, are searched
    once each as collection rows, 64 at a time, whatever number of tags
    they carry. Votes are counted only for the requested tags a candidate
    carries, so memory does not grow with the vocabulary. Each score is
    bit-identical to neighbor_vote over knn for its candidate.
    """
    if len(c) == 0:
        raise ValueError("empty collection")
    if k < 1:
        raise ValueError("k must be >= 1")
    wanted = set(tags)
    cand = sorted(set().union(*(images_with_tag(c, w) for w in wanted)))
    if isinstance(metric, str):
        estimator, meta = f"tagrel:{metric}", {}
    else:
        estimator, meta = "earlyfuse", {"weights": metric}
    columns = {w: np.fromiter(map(c.index_of, images_with_tag(c, w)), int) for w in wanted}
    votes: dict[str, list[np.ndarray]] = {w: [] for w in wanted}
    rows = np.fromiter(map(c.index_of, cand), int, len(cand))
    for start in range(0, len(rows), 64):
        block = rows[start : start + 64]
        taken = top_k(distance_block(c, metric, block, normalizers), k, c.id_rank)
        carriers: dict[str, list[int]] = {}
        for b, i in enumerate(block):
            for w in wanted.intersection(c.images[i].tags):
                carriers.setdefault(w, []).append(b)
        for w, bs in carriers.items():
            votes[w].append(taken[np.ix_(bs, columns[w])].sum(axis=1))
    tables: dict[str, ScoreTable] = {}
    for w in tags:
        ids = tuple(sorted(images_with_tag(c, w)))
        counts = np.concatenate(votes[w]) if votes[w] else np.zeros(0)
        tables[w] = ScoreTable(estimator, w, ids, counts / k - tag_prior(c, w), dict(meta))
    return tables


def neighbor_vote_table(c: Collection, w: str, feature: str, k: int) -> ScoreTable:
    """Neighbor-vote scores for every candidate image of tag `w` in `c`.

    Bit-identical to calling neighbor_vote over knn per candidate.
    """
    return vote_tables(c, [w], feature, None, k)[w]


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


def tag_position_table(c: Collection, w: str) -> ScoreTable:
    ids = tuple(sorted(images_with_tag(c, w)))
    scores = [tag_position_score(c.record(x), w) for x in ids]
    return ScoreTable("tagposition", w, ids, scores)


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


def semantic_field_table(c: Collection, w: str, model: TagSimilarityModel) -> ScoreTable:
    ids = tuple(sorted(images_with_tag(c, w)))
    scores = [semantic_field_score(c.record(x), w, model) for x in ids]
    return ScoreTable("semanticfield", w, ids, scores)


# ---------------------------------------------------------------------------
# kernel-density tag ranking baseline
# ---------------------------------------------------------------------------


def _median(d: np.ndarray) -> float:
    """np.median of nonnegative `d`, bit for bit, from one partition: the
    middle order statistic, or (a + b) / 2 of the middle two for an even
    count."""
    h = len(d) // 2
    if len(d) % 2:
        return float(np.partition(d, h)[h])
    part = np.partition(d, (h - 1, h))
    return (float(part[h - 1]) + float(part[h])) / 2


def _kde_sigma(
    c: Collection, w: str, feature: str, sample_cap: int, seed: int
) -> float:
    """Median pairwise L1 distance over a seeded sample of tagged images
    (`_median`, numpy's median taken from one partition)."""
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
    sigma = _median(d)
    return sigma if sigma > 0.0 else 1.0


def kde_table(
    c: Collection,
    w: str,
    feature: str,
    sample_cap: int = 500,
    seed: int = 0,
) -> ScoreTable:
    """Kernel-density scores for every image of `w`.

    An image x scores the mean Gaussian kernel exp(-d^2 / sigma^2) over
    the L1 distances d from x to the other images of `w` (its support).
    sigma is the tag's median pairwise distance (seeded sample). Every
    support has the same size, so a support larger than `sample_cap` is cut
    to one seeded sample of positions, drawn once per tag. Images are
    scored in blocks of 64 from one pairwise_l1 block to the tag's images.
    An image with an empty support scores 0.0.
    """
    members = tuple(sorted(images_with_tag(c, w)))
    source = c.feature(feature).matrix[np.array([c.index_of(x) for x in members], dtype=int)]
    sigma = _kde_sigma(c, w, feature, sample_cap, seed)
    size = len(members) - 1
    cols = np.arange(size)
    if size > sample_cap:
        cols = np.sort(np.random.default_rng(seed).choice(size, size=sample_cap, replace=False))
    scores = np.zeros(len(members))
    for start in range(0, len(members), 64):
        dist = pairwise_l1(source[start : start + 64], source)
        for j, row in enumerate(dist, start):
            d = row[cols + (cols >= j)]  # skip the image's own slot
            if len(d):
                scores[j] = np.mean(np.exp(-(d * d) / (sigma * sigma)))
    return ScoreTable(f"tagranking:{feature}", w, members, scores, {"sigma": sigma})
