"""Named scoring pipelines.

A preset is a declarative composition of the library operations: the twelve
fusion solutions ({early,late} x {minmax,rankmax} x {average,learning,
learning+}), one single-feature voting run per configured feature, and the
three heterogeneous baselines (tag position, semantic field, kernel-density
tag ranking). Resolving a preset yields ranked runs for every requested tag.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from .collection import Collection, images_with_tag
from .estimators import (
    ScoreTable,
    TagSimilarityModel,
    build_tag_similarity,
    kde_table,
    semantic_field_table,
    tag_position_table,
    vote_tables,
)
from .fusion import (
    late_fuse,
    minmax_normalize,
    neighbor_vote_bounds,
    observed_bounds,
    rankmax_normalize,
    unit_bounds,
)
from .evalkit import RunFile, run_from_tables
from .neighbors import WeightVector, calibrate_normalizers

SCHEMES = ("early", "late")
NORMS = ("minmax", "rankmax")
WEIGHTINGS = ("average", "learning", "learning+")


def derive_seed(root_seed: int, label: str) -> int:
    """Stable per-component seed split from one root seed."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fusion_preset_names() -> list[str]:
    return [
        f"{scheme}-{norm}-{weighting}"
        for scheme in SCHEMES
        for norm in NORMS
        for weighting in WEIGHTINGS
    ]


def available_presets(features: Sequence[str]) -> list[str]:
    """Exactly the supported preset names for a feature configuration."""
    names = fusion_preset_names()
    names += [f"tagrel-{f}" for f in features]
    names += ["tagposition", "semanticfield", "tagranking"]
    return names


@dataclass
class ScoreSettings:
    """Everything a preset needs besides the collection itself."""

    features: tuple[str, ...]
    k: int = 500
    estimators: tuple[str, ...] = ()  # late-fusion inputs; default tagrel per feature
    kde_feature: str | None = None
    kde_sample_cap: int = 500
    min_count: int = 1
    calib_sample_size: int = 10000
    seed: int = 0
    weights: WeightVector | None = None
    concept_weights: Mapping[str, WeightVector] | None = None
    query_tags: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("at least one feature must be configured")
        for name in ("k", "kde_sample_cap", "calib_sample_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.estimators:
            self.estimators = tuple(f"tagrel:{f}" for f in self.features)
        if self.kde_feature is None:
            self.kde_feature = self.features[0]


def _parse_estimator(spec: str) -> tuple[str, str | None]:
    if spec.startswith("tagrel:"):
        return "tagrel", spec.split(":", 1)[1]
    if spec.startswith("tagranking:"):
        return "tagranking", spec.split(":", 1)[1]
    if spec in ("tagposition", "semanticfield"):
        return spec, None
    raise ValueError(f"unknown estimator spec {spec!r}")


class EstimatorContext:
    """Lazily shared state across the tags of one command.

    Holds the similarity model and, per voting feature, the tables of every
    tag in `tags`, computed in one neighbor pass the first time any of them
    is asked for.
    """

    def __init__(self, c: Collection, settings: ScoreSettings, tags: Sequence[str]) -> None:
        self.c = c
        self.settings = settings
        self.tags = tuple(tags)
        self._sim_model: TagSimilarityModel | None = None
        self._votes: dict[str, dict[str, ScoreTable]] = {}

    @property
    def sim_model(self) -> TagSimilarityModel:
        if self._sim_model is None:
            self._sim_model = build_tag_similarity(self.c, min_count=self.settings.min_count)
        return self._sim_model

    def base_table(self, spec: str, tag: str) -> ScoreTable:
        kind, feature = _parse_estimator(spec)
        s = self.settings
        if kind == "tagrel":
            assert feature is not None
            if feature not in self._votes:
                self._votes[feature] = vote_tables(self.c, self.tags, feature, None, s.k)
            return self._votes[feature][tag]
        if kind == "tagposition":
            return tag_position_table(self.c, tag)
        if kind == "semanticfield":
            return semantic_field_table(self.c, tag, self.sim_model)
        assert feature is not None
        return kde_table(
            self.c,
            tag,
            feature,
            sample_cap=s.kde_sample_cap,
            seed=derive_seed(s.seed, f"kde:{tag}"),
        )

    def minmax_table(self, spec: str, tag: str, table: ScoreTable) -> ScoreTable:
        kind, _ = _parse_estimator(spec)
        if kind == "tagrel":
            return minmax_normalize(table, neighbor_vote_bounds(self.c, tag))
        if kind in ("tagposition", "semanticfield"):
            return minmax_normalize(table, unit_bounds())
        # KDE has no closed-form range. A constant table (a tag on exactly
        # two images, for one) has no observed range either; mapping it to
        # 0.0 is a constant shift, which cannot reorder the fused run.
        values = set(table.scores.values())
        if len(values) == 1:
            (value,) = values
            meta = {**table.meta, "minmax_bounds": (value, value), "bounds_source": "constant"}
            return ScoreTable(table.estimator, tag, dict.fromkeys(table.scores, 0.0), meta)
        return minmax_normalize(table, observed_bounds(table))

    def normalized_tables(self, tag: str, norm: str) -> list[ScoreTable]:
        """The configured estimators' tables for `tag`, MinMax- or RankMax-normalized."""
        tables: list[ScoreTable] = []
        for spec in self.settings.estimators:
            base = self.base_table(spec, tag)
            if norm == "minmax":
                tables.append(self.minmax_table(spec, tag, base))
            else:
                tables.append(rankmax_normalize(base))
        return tables


def _weights_for(
    settings: ScoreSettings,
    weighting: str,
    names: tuple[str, ...],
    tag: str | None = None,
) -> WeightVector:
    if weighting == "average":
        return WeightVector.uniform(names)
    if weighting == "learning":
        if settings.weights is None:
            raise ValueError("preset needs learned weights; none supplied")
        return _align(settings.weights, names)
    if settings.concept_weights is None:
        raise ValueError("preset needs per-concept weights; none supplied")
    assert tag is not None
    wv = settings.concept_weights.get(tag)
    if wv is None:
        if settings.weights is None:
            raise ValueError(f"no per-concept weights for {tag!r} and no global fallback")
        wv = settings.weights
    return _align(wv, names)


def _align(wv: WeightVector, names: tuple[str, ...]) -> WeightVector:
    if wv.names == names:
        return wv
    lookup = dict(zip(wv.names, wv.weights))
    if len(lookup) != len(wv.names):
        raise ValueError("duplicate names in weight vector cannot be realigned")
    try:
        return WeightVector(names, tuple(lookup[n] for n in names))
    except KeyError as exc:
        raise ValueError(f"weights missing entry for {exc.args[0]!r}") from None


def _query_tags(c: Collection, settings: ScoreSettings) -> list[str]:
    if settings.query_tags is not None:
        missing = [t for t in settings.query_tags if not images_with_tag(c, t)]
        if missing:
            raise ValueError(f"tag {missing[0]!r} labels no image in the collection")
        return sorted(settings.query_tags)
    return sorted(c.tag_index)


def build_training_tables(
    c: Collection,
    concepts: Sequence[str],
    settings: ScoreSettings,
    norm: str,
) -> dict[str, list[ScoreTable]]:
    """Normalized base tables per concept, as the late-fusion learners expect.

    Concepts labeling no image in the collection are skipped (they have no
    candidates to rank).
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    labeled = [tag for tag in concepts if images_with_tag(c, tag)]
    ctx = EstimatorContext(c, settings, labeled)
    return {tag: ctx.normalized_tables(tag, norm) for tag in labeled}


def score_preset(
    c: Collection,
    preset: str,
    settings: ScoreSettings,
    run_id: str | None = None,
) -> RunFile:
    """Run the named preset over the requested tags, returning ranked runs."""
    run_id = run_id if run_id is not None else preset
    tags = _query_tags(c, settings)
    ctx = EstimatorContext(c, settings, tags)

    single = {f"tagrel-{f}": f"tagrel:{f}" for f in c.features}
    single.update(
        tagposition="tagposition",
        semanticfield="semanticfield",
        tagranking=f"tagranking:{settings.kde_feature}",
    )
    if preset in single:
        return run_from_tables(run_id, [ctx.base_table(single[preset], t) for t in tags])

    parts = preset.split("-")
    if len(parts) != 3 or parts[0] not in SCHEMES or parts[1] not in NORMS or parts[2] not in WEIGHTINGS:
        raise ValueError(f"unknown preset {preset!r}")
    scheme, norm, weighting = parts

    if scheme == "early":
        normalizers = calibrate_normalizers(
            c,
            settings.features,
            mode=norm,
            sample_size=settings.calib_sample_size,
            seed=derive_seed(settings.seed, "calibration"),
        )
        groups: dict[WeightVector, list[str]] = {}  # one neighbor pass per weight vector
        for t in tags:
            wv = _weights_for(settings, weighting, settings.features, tag=t)
            groups.setdefault(wv, []).append(t)
        tables: dict[str, ScoreTable] = {}
        for wv, group in groups.items():
            tables.update(vote_tables(c, group, wv, normalizers, settings.k))
        return run_from_tables(run_id, [tables[t] for t in tags])

    # late fusion over the configured estimators
    fused_tables = []
    for t in tags:
        wv = _weights_for(settings, weighting, settings.estimators, tag=t)
        fused_tables.append(late_fuse(ctx.normalized_tables(t, norm), wv, name=preset))
    return run_from_tables(run_id, fused_tables)
