"""Tagged image collections: loading, validation, indexing, and synthetic worlds.

A collection bundles the image records (id, user, ordered tag list), one
dense feature matrix per named feature space, and the inverted tag index.
Everything is immutable after construction, so concurrent readers are safe.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class CollectionError(ValueError):
    """Malformed collection input (bad file, broken invariant)."""


def normalize_tag(raw: str) -> str:
    """Canonical tag token: lowercase, ASCII-folded, no surrounding space."""
    folded = unicodedata.normalize("NFKD", raw).encode("ascii", "ignore").decode("ascii")
    return folded.strip().lower()


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    user_id: str
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.image_id:
            raise CollectionError("image_id must be non-empty")
        if len(set(self.tags)) != len(self.tags):
            dups = sorted({t for t in self.tags if self.tags.count(t) > 1})
            raise CollectionError(
                f"duplicate tag(s) {dups} on image {self.image_id!r}"
            )


@dataclass
class FeatureMatrix:
    """One row of `dim` finite floats per image, aligned with Collection.images."""

    name: str
    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.dim:
            raise CollectionError(
                f"feature {self.name!r}: matrix shape {self.matrix.shape} "
                f"does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise CollectionError(f"feature {self.name!r}: non-finite component")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return (
            self.name == other.name
            and self.dim == other.dim
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )


class Collection:
    """Immutable set of tagged images plus per-feature vectors.

    `tag_index[w]` is exactly the set of image ids carrying tag `w`;
    `len(collection)` is the collection size the frequency prior divides by.
    """

    def __init__(
        self,
        images: Sequence[ImageRecord],
        features: Mapping[str, FeatureMatrix] | None = None,
    ) -> None:
        self.images: tuple[ImageRecord, ...] = tuple(images)
        self.features: dict[str, FeatureMatrix] = dict(features or {})
        seen: dict[str, int] = {}
        for i, rec in enumerate(self.images):
            if rec.image_id in seen:
                raise CollectionError(f"duplicate image_id {rec.image_id!r}")
            seen[rec.image_id] = i
        self._index_of = seen
        for name, fm in self.features.items():
            if name != fm.name:
                raise CollectionError(f"feature key {name!r} != matrix name {fm.name!r}")
            if fm.matrix.shape[0] != len(self.images):
                raise CollectionError(
                    f"feature {name!r} has {fm.matrix.shape[0]} rows "
                    f"for {len(self.images)} images"
                )
        index: dict[str, set[str]] = {}
        for rec in self.images:
            for t in rec.tags:
                index.setdefault(t, set()).add(rec.image_id)
        self.tag_index: dict[str, frozenset[str]] = {
            t: frozenset(ids) for t, ids in sorted(index.items())
        }
        # rank of each row's image_id in ascending id order; used for the
        # global tie rule (ties always break by ascending image_id)
        order = sorted(range(len(self.images)), key=lambda i: self.images[i].image_id)
        ranks = np.empty(len(self.images), dtype=np.int64)
        for rank, i in enumerate(order):
            ranks[i] = rank
        self.id_rank: np.ndarray = ranks

    def __len__(self) -> int:
        return len(self.images)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._index_of

    def index_of(self, image_id: str) -> int:
        try:
            return self._index_of[image_id]
        except KeyError:
            raise KeyError(f"unknown image id {image_id!r}") from None

    def record(self, image_id: str) -> ImageRecord:
        return self.images[self.index_of(image_id)]

    def feature(self, name: str) -> FeatureMatrix:
        try:
            return self.features[name]
        except KeyError:
            raise KeyError(f"unknown feature {name!r}") from None

    def vector(self, feature: str, image_id: str) -> np.ndarray:
        return self.feature(feature).matrix[self.index_of(image_id)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return self.images == other.images and self.features == other.features


def images_with_tag(c: Collection, w: str) -> frozenset[str]:
    """Ids of images labeled with `w`; empty for unseen tags."""
    return c.tag_index.get(w, frozenset())


def tag_prior(c: Collection, w: str) -> float:
    """Fraction of the collection labeled `w`: the frequency prior that
    the voting estimator subtracts."""
    if len(c) == 0:
        raise CollectionError("tag_prior undefined on an empty collection")
    return len(images_with_tag(c, w)) / len(c)


# ---------------------------------------------------------------------------
# file formats
#
# tags file:    image_id<TAB>user_id<TAB>tag1 tag2 ... (order significant)
# feature file: first line  #feature<TAB><name><TAB><dim>
#               then        image_id<TAB>v1,v2,...,vdim
# '#'-prefixed lines are comments (except the mandatory feature header).
# ---------------------------------------------------------------------------


def _read_lines(path: Path) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1)]


def load_collection(tags_path: str | Path, feature_paths: Iterable[str | Path]) -> Collection:
    """Load and validate a collection from a tags file plus feature files.

    Raises CollectionError naming the file, line, and offending image id for
    every format violation (missing row, dim mismatch, duplicate id,
    non-finite value, duplicate tag).
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
        rows: dict[str, np.ndarray] = {}
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
                vec = np.array([float(v) for v in comps], dtype=np.float64)
            except ValueError:
                raise CollectionError(
                    f"{fpath}:{no}: unparseable component for image {image_id!r}"
                ) from None
            if not np.all(np.isfinite(vec)):
                raise CollectionError(
                    f"{fpath}:{no}: non-finite component for image {image_id!r}"
                )
            rows[image_id] = vec
        missing = [i for i in ids if i not in rows]
        if missing:
            raise CollectionError(
                f"{fpath}: feature {name!r} missing image {missing[0]!r}"
                + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
            )
        matrix = np.stack([rows[i] for i in ids]) if ids else np.zeros((0, dim))
        features[name] = FeatureMatrix(name=name, dim=dim, matrix=matrix)

    return Collection(records, features)


def save_collection(
    c: Collection, tags_path: str | Path, feature_paths: Mapping[str, str | Path]
) -> None:
    """Write `c` in the canonical on-disk formats (floats via repr, lossless)."""
    tags_path = Path(tags_path)
    with open(tags_path, "w", encoding="utf-8") as fh:
        for rec in c.images:
            fh.write(f"{rec.image_id}\t{rec.user_id}\t{' '.join(rec.tags)}\n")
    for name, path in feature_paths.items():
        fm = c.feature(name)
        with open(Path(path), "w", encoding="utf-8") as fh:
            fh.write(f"#feature\t{fm.name}\t{fm.dim}\n")
            for rec, row in zip(c.images, fm.matrix):
                fh.write(rec.image_id + "\t" + ",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic collections with known ground truth
# ---------------------------------------------------------------------------


def synthetic_tag_names(n_tags: int) -> list[str]:
    return [f"tag{i:03d}" for i in range(n_tags)]


@dataclass(frozen=True)
class SyntheticFeature:
    """Feature slot for the generator.

    `informative_tags` lists the tags whose images form a planted cluster in
    this feature space; None means informative for every tag. Images whose
    true tag is not listed get pure-noise rows.
    """

    name: str
    dim: int
    informative_tags: frozenset[str] | None = None

    def informative_for(self, tag: str) -> bool:
        return self.informative_tags is None or tag in self.informative_tags


@dataclass(frozen=True)
class SyntheticConfig:
    n_images: int
    n_tags: int
    n_users: int
    features: tuple[SyntheticFeature, ...]
    q_correct: float
    q_incorrect: float
    cluster_spread: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.n_images <= 0 or self.n_tags <= 0 or self.n_users <= 0:
            raise ValueError("n_images, n_tags, n_users must be positive")
        if not self.features:
            raise ValueError("at least one feature is required")
        if any(f.dim <= 0 for f in self.features):
            raise ValueError("feature dims must be positive")
        if len({f.name for f in self.features}) != len(self.features):
            raise ValueError("feature names must be unique")
        if not (0.0 <= self.q_incorrect <= 1.0 and 0.0 <= self.q_correct <= 1.0):
            raise ValueError("q_correct and q_incorrect must lie in [0, 1]")
        if self.q_correct <= self.q_incorrect:
            raise ValueError("q_correct must exceed q_incorrect")
        if not (np.isfinite(self.cluster_spread) and self.cluster_spread > 0):
            raise ValueError("cluster_spread must be finite and positive")


def generate_collection(cfg: SyntheticConfig) -> tuple[Collection, dict[str, frozenset[str]]]:
    """Deterministically generate a collection plus its hidden ground truth.

    Each image gets one true tag; per informative feature the image sits at
    that tag's planted cluster center plus uniform noise, otherwise its row is
    pure noise. Observed tags keep the true tag with probability q_correct and
    gain each wrong tag with probability q_incorrect. The returned ground
    truth (tag -> truly relevant ids) is never encoded in the collection.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    tags = synthetic_tag_names(cfg.n_tags)
    n = cfg.n_images

    true_tag_idx = rng.integers(0, cfg.n_tags, size=n)
    user_idx = rng.integers(0, cfg.n_users, size=n)
    image_ids = [f"img{i:06d}" for i in range(n)]

    features: dict[str, FeatureMatrix] = {}
    for spec in cfg.features:
        centers = rng.uniform(0.0, 1.0, size=(cfg.n_tags, spec.dim))
        cluster_noise = rng.uniform(-1.0, 1.0, size=(n, spec.dim)) * cfg.cluster_spread
        ambient = rng.uniform(0.0, 1.0, size=(n, spec.dim))
        informative = np.array([spec.informative_for(t) for t in tags], dtype=bool)
        row_informative = informative[true_tag_idx]
        matrix = np.where(
            row_informative[:, None], centers[true_tag_idx] + cluster_noise, ambient
        )
        features[spec.name] = FeatureMatrix(name=spec.name, dim=spec.dim, matrix=matrix)

    keep_true = rng.random(n) < cfg.q_correct
    noise_draws = rng.random((n, cfg.n_tags)) < cfg.q_incorrect

    records: list[ImageRecord] = []
    for i in range(n):
        true_t = tags[true_tag_idx[i]]
        observed: list[str] = []
        if keep_true[i]:
            observed.append(true_t)
        for j, t in enumerate(tags):
            if t != true_t and noise_draws[i, j]:
                observed.append(t)
        records.append(
            ImageRecord(
                image_id=image_ids[i],
                user_id=f"user{user_idx[i]:04d}",
                tags=tuple(observed),
            )
        )

    ground_truth = {
        t: frozenset(image_ids[i] for i in range(n) if true_tag_idx[i] == k)
        for k, t in enumerate(tags)
    }
    return Collection(records, features), ground_truth
