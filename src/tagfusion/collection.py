"""Tagged image collections: loading, validation, indexing, and synthetic worlds.

A collection bundles the image records (id, user, ordered tag list), one
dense feature matrix per named feature space, and the inverted tag index.
Everything is immutable after construction, so concurrent readers are safe.
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class CollectionError(ValueError):
    """Malformed collection input (bad file, broken invariant)."""


def normalize_tag(raw: str) -> str:
    """Canonical tag token: lowercase, ASCII-folded, no surrounding space or leading '#'."""
    folded = unicodedata.normalize("NFKD", raw).encode("ascii", "ignore").decode("ascii")
    return re.sub(r"^[\s#]+|\s+\Z", "", folded).lower()


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
    """(line number, line without its newline) of a UTF-8 text file, without
    a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1)]
    except UnicodeDecodeError:  # read again, bad bytes as lone surrogates, to find the line
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            surrogate = re.compile("[\udc80-\udcff]").search
            no = next(no for no, line in enumerate(fh, start=1) if surrogate(line))
        raise ValueError(f"{path}:{no}: not valid UTF-8") from None


def _records(
    path: Path, width: int, shape: str | None = None,
    error: type[ValueError] = ValueError, comments: list[str] | None = None,
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line that is neither blank nor a '#' comment (comment
    lines go to `comments`, if given); a line without `width` tab-separated fields raises
    `error`, "path:line: expected <shape>" or, without `shape`, the counts."""
    for no, line in _read_lines(path):
        if line.startswith("#") and comments is not None:
            comments.append(line)
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            expected = shape or f"{width} tab-separated fields, got {len(fields)}"
            raise error(f"{path}:{no}: expected {expected}")
        yield no, fields


def _write_records(path: str | Path, rows: Iterable[Iterable[str]], header: str = "") -> None:
    """Write `header`, then each row's fields joined by tabs on one line (give
    floats as their repr, which reads back bit for bit); creates the directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines("\t".join(row) + "\n" for row in rows)


_BLOCK_ROWS = 256  # feature rows converted to float64 per numpy assignment


def load_collection(tags_path: str | Path, feature_paths: Iterable[str | Path]) -> Collection:
    """Load and validate a collection from a tags file plus feature files.

    Raises CollectionError naming the file, line, and offending image id for
    every format violation (missing row, dim mismatch, duplicate id,
    non-finite value, duplicate tag), naming the tags file when it holds no
    image row, and naming the file and feature when
    the feature's widest L1 distance, sum_j (max_j - min_j), is not finite.
    When a file has several faults, the one on the earliest line is reported.
    Feature components are Python float literals (`float()`'s grammar).
    """
    tags_path = Path(tags_path)
    fold = lru_cache(maxsize=None)(normalize_tag)  # each distinct raw token once
    records: list[ImageRecord] = []
    seen: set[str] = set()
    for no, (image_id, user_id, tag_field) in _records(tags_path, 3, error=CollectionError):
        tags = tuple(map(fold, filter(None, tag_field.split(" "))))
        if "" in tags:
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
        rows: dict[str, int] = {}  # image id -> its row in the stacked blocks
        blocks: list[np.ndarray] = []
        pending: list[tuple[int, str, list[str]]] = []  # checked rows not yet in a block

        def convert() -> None:
            """Parse the pending rows into one more block, raising on the first bad one."""
            if not pending:
                return
            out = np.empty((len(pending), dim))  # each row has dim components: bounded by the text
            try:  # assigning str uses float(), the same grammar as row by row
                out[:] = [comps for _, _, comps in pending]
            except ValueError:  # row by row, to find the first unparseable line
                for row, (no, image_id, comps) in zip(out, pending):
                    try:
                        row[:] = [float(v) for v in comps]
                    except ValueError:
                        raise CollectionError(
                            f"{fpath}:{no}: unparseable component for image {image_id!r}"
                        ) from None
                    if not np.isfinite(row).all():
                        break  # reported below, before any later row is parsed
            bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
            if bad.size:
                no, image_id, _ = pending[bad[0]]
                raise CollectionError(
                    f"{fpath}:{no}: non-finite component for image {image_id!r}"
                )
            blocks.append(out)
            pending.clear()

        for no, line in lines[1:]:
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            image_id, comps = parts[0], parts[-1].split(",")
            if len(parts) != 2:
                problem = f"expected 'image_id<TAB>v1,...,v{dim}'"
            elif image_id in rows:
                problem = f"duplicate row for image {image_id!r}"
            elif image_id not in seen:
                problem = f"image {image_id!r} not present in tags file"
            elif len(comps) != dim:
                problem = f"image {image_id!r} has {len(comps)} components, expected {dim}"
            else:
                rows[image_id] = len(rows)
                pending.append((no, image_id, comps))
                if len(pending) == _BLOCK_ROWS:
                    convert()
                continue
            convert()  # a bad value on an earlier line is reported first
            raise CollectionError(f"{fpath}:{no}: {problem}")
        convert()
        missing = [i for i in ids if i not in rows]
        if missing:
            raise CollectionError(
                f"{fpath}: feature {name!r} missing image {missing[0]!r}"
                + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
            )
        matrix = np.concatenate(blocks)[[rows[i] for i in ids]]
        with np.errstate(over="ignore", invalid="ignore"):
            widest = float((matrix.max(axis=0) - matrix.min(axis=0)).sum())
        if not math.isfinite(widest):
            raise CollectionError(
                f"{fpath}: feature {name!r} has L1 distances that overflow: "
                "the widest, sum_j (max_j - min_j), exceeds the float range"
            )
        features[name] = FeatureMatrix(name=name, dim=dim, matrix=matrix)

    return Collection(records, features)


_FIELD_BREAK = re.compile("[\t\r\n]")


def save_collection(
    c: Collection, tags_path: str | Path, feature_paths: Mapping[str, str | Path]
) -> None:
    """Write `c` in the canonical on-disk formats (floats via repr, lossless),
    creating the directories the paths need.

    Raises CollectionError naming the image, before creating or writing
    anything, when `load_collection` would read a record back differently
    or not at all:
    an id that starts with '#' or U+FEFF (read as a comment or a byte-order
    mark), a record of only whitespace (a blank line), an id, user or tag
    holding a tab, CR or LF, or a tag that is empty, holds a space or is not
    already folded (lowercase ASCII, as `normalize_tag` leaves it). A feature
    name holding a tab, CR or LF is refused the same way, naming the feature.
    """
    for name in feature_paths:
        if _FIELD_BREAK.search(name):
            raise CollectionError(f"cannot save feature {name!r}: its name holds a tab, CR or LF")
    tags = {t for rec in c.images for t in rec.tags}
    unsaveable = {t for t in tags if not t or " " in t or normalize_tag(t) != t}
    rows = []
    for rec in c.images:
        tag_field = " ".join(rec.tags)
        text = f"{rec.image_id}{rec.user_id}{tag_field}"
        if text.startswith(("#", "\ufeff")) or not text.strip() or _FIELD_BREAK.search(text):
            raise CollectionError(
                f"cannot save image {rec.image_id!r}: its id starts with '#' or a byte-order "
                "mark, its line would be blank, or its id, user or tags hold a tab, CR or LF"
            )
        if not unsaveable.isdisjoint(rec.tags):
            raise CollectionError(
                f"cannot save image {rec.image_id!r}: a tag is empty, holds a space "
                "or is not folded to lowercase ASCII"
            )
        rows.append((rec.image_id, rec.user_id, tag_field))
    _write_records(tags_path, rows)
    for name, path in feature_paths.items():
        fm = c.feature(name)
        # row by row: a whole-matrix tolist() costs memory
        vecs = ((r.image_id, ",".join(map(repr, v.tolist()))) for r, v in zip(c.images, fm.matrix))
        _write_records(path, vecs, f"#feature\t{fm.name}\t{fm.dim}\n")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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

    keep_true = (rng.random(n) < cfg.q_correct).tolist()
    wrong = rng.random((n, cfg.n_tags)) < cfg.q_incorrect
    wrong[np.arange(n), true_tag_idx] = False
    # row-major: image by image, each image's wrong tags in tag order
    wrong_tags = [tags[j] for j in np.nonzero(wrong)[1].tolist()]
    ends = np.cumsum(wrong.sum(axis=1)).tolist()

    records: list[ImageRecord] = []
    start = 0
    for image_id, keep, k, u, end in zip(
        image_ids, keep_true, true_tag_idx.tolist(), user_idx.tolist(), ends
    ):
        observed = ([tags[k]] if keep else []) + wrong_tags[start:end]
        records.append(ImageRecord(image_id, f"user{u:04d}", tuple(observed)))
        start = end

    by_tag = np.argsort(true_tag_idx, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(true_tag_idx, minlength=cfg.n_tags)).tolist()
    ground_truth = {
        t: frozenset(image_ids[i] for i in by_tag[lo:hi])
        for t, lo, hi in zip(tags, [0] + bounds, bounds)
    }
    return Collection(records, features), ground_truth
