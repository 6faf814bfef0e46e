"""tagfusion: tag relevance estimation with early/late rank fusion."""

from .collection import (
    Collection,
    CollectionError,
    FeatureMatrix,
    ImageRecord,
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    images_with_tag,
    load_collection,
    save_collection,
    synthetic_tag_names,
    tag_prior,
)
from .estimators import (
    ScoreTable,
    TagSimilarityModel,
    build_tag_similarity,
    kde_table,
    semantic_field_score,
    semantic_field_table,
    tag_position_score,
    tag_position_table,
)
from .evalkit import (
    Qrels,
    RunFile,
    average_precision,
    evaluate_run,
    mean_over_concepts,
    ndcg_at,
    randomization_test,
    read_qrels,
    read_run,
    render_report,
    run_from_tables,
    write_qrels,
    write_run,
)
from .fusion import (
    ScoreBounds,
    late_fuse,
    minmax_normalize,
    neighbor_vote_bounds,
    observed_bounds,
    rankmax_normalize,
    read_concept_weights,
    read_weights,
    unit_bounds,
    write_concept_weights,
    write_weights,
)
from .learning import (
    AscentConfig,
    AscentResult,
    GradientResult,
    PairSampleError,
    PerConceptResult,
    coordinate_ascent,
    learn_distance_weights,
    learn_distance_weights_per_concept,
    learn_per_concept,
    pair_feature_distances,
    sample_pairs,
    simplex_project,
)
from .neighbors import (
    CalibrationError,
    DistanceNormalizer,
    WeightVector,
    calibrate_normalizer,
    calibrate_normalizers,
)
from .presets import (
    ScoreSettings,
    available_presets,
    build_training_tables,
    derive_seed,
    score_preset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
