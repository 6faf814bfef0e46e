import math

import numpy as np
import pytest
from hypothesis import given, settings

from tagfusion.collection import (
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    images_with_tag,
    tag_prior,
)
from tagfusion.estimators import (
    _kde_sigma,
    _median,
    build_tag_similarity,
    early_fused_score,
    kde_table,
    neighbor_vote,
    neighbor_vote_table,
    semantic_field_score,
    tag_position_score,
    vote_tables,
)
from tagfusion.fusion import minmax_normalize, neighbor_vote_bounds, rankmax_normalize
from tagfusion.neighbors import NeighborList, WeightVector, calibrate_normalizers, knn
from tagfusion.presets import ScoreSettings, build_training_tables, derive_seed, score_preset

from conftest import distance_arrays, line_collection, make_collection
from oracles import dict_table, early_fused_table, from_pair_table, scores_of, tag_ranking_kde_score


def fabricate_neighbors(query, ids):
    return NeighborList(query_id=query, entries=tuple((i, float(k)) for k, i in enumerate(ids)))


class TestNeighborVote:
    def test_hand_value(self, prior_collection):
        # 4 of 10 neighbors tagged, prior 0.1 -> 0.4 - 0.1 = 0.3
        neighbors = [f"img{i:04d}" for i in range(4)] + [f"img{i:04d}" for i in range(500, 506)]
        nl = fabricate_neighbors("img0999", neighbors)
        got = neighbor_vote(prior_collection, nl, "w", 10)
        assert got == pytest.approx(0.3, abs=1e-9)

    def test_zero_votes_is_minus_prior(self):
        records = [(f"i{k:03d}", "u", ["w"] if k < 50 else []) for k in range(1000)]
        c = make_collection(records)
        nl = fabricate_neighbors("i0999", [f"i{k:03d}" for k in range(900, 910)])
        assert neighbor_vote(c, nl, "w", 10) == pytest.approx(-0.05, abs=1e-9)

    def test_ubiquitous_tag_scores_zero(self):
        records = [(f"i{k}", "u", ["w"]) for k in range(5)]
        c = make_collection(records)
        nl = fabricate_neighbors("i0", ["i1", "i2", "i3", "i4"])
        assert neighbor_vote(c, nl, "w", 4) == 0.0

    def test_denominator_is_requested_k(self):
        records = [(f"i{k}", "u", ["w"] if k < 2 else []) for k in range(4)]
        c = make_collection(records)
        nl = fabricate_neighbors("i3", ["i0", "i1"])  # only 2 neighbors exist
        assert neighbor_vote(c, nl, "w", 10) == pytest.approx(2 / 10 - 2 / 4)

    def test_monotone_in_vote_count(self, prior_collection):
        scores = []
        for votes in range(0, 11):
            ids = [f"img{i:04d}" for i in range(votes)] + [
                f"img{i:04d}" for i in range(500, 510 - votes)
            ]
            nl = fabricate_neighbors("img0999", ids)
            scores.append(neighbor_vote(prior_collection, nl, "w", 10))
        assert scores == sorted(scores)

    def test_counting_bounds(self, prior_collection):
        prior = tag_prior(prior_collection, "w")
        for votes in (0, 3, 10):
            ids = [f"img{i:04d}" for i in range(votes)] + [
                f"img{i:04d}" for i in range(500, 510 - votes)
            ]
            nl = fabricate_neighbors("img0999", ids)
            s = neighbor_vote(prior_collection, nl, "w", 10)
            assert -prior - 1e-12 <= s <= 1 - prior + 1e-12

    def test_too_many_entries_rejected(self, prior_collection):
        nl = fabricate_neighbors("img0999", [f"img{i:04d}" for i in range(11)])
        with pytest.raises(ValueError):
            neighbor_vote(prior_collection, nl, "w", 10)


def clustered_collection(seed=0):
    cfg = SyntheticConfig(
        n_images=120,
        n_tags=3,
        n_users=5,
        features=(SyntheticFeature("fa", 2), SyntheticFeature("fb", 2)),
        q_correct=0.95,
        q_incorrect=0.02,
        cluster_spread=0.02,
        seed=seed,
    )
    return generate_collection(cfg)


class TestEarlyFusion:
    def test_one_hot_reduces_to_single_feature(self):
        c, _ = clustered_collection()
        wv = WeightVector.one_hot(["fa", "fb"], "fa")
        tag = "tag000"
        for x in sorted(images_with_tag(c, tag))[:5]:
            direct = neighbor_vote(c, knn(c, "fa", x, 15), tag, 15)
            fused = early_fused_score(c, x, tag, wv, None, 15)
            assert fused == direct  # bit-exact reduction

    def test_uniform_weights_score_relevant_images_positively(self):
        c, truth = clustered_collection()
        tag = "tag001"
        wv = WeightVector.uniform(["fa", "fb"])
        relevant_tagged = sorted(truth[tag] & images_with_tag(c, tag))[:5]
        for x in relevant_tagged:
            assert early_fused_score(c, x, tag, wv, None, 15) >= 0.0

    def test_counting_bound(self):
        c, _ = clustered_collection()
        tag = "tag002"
        prior = tag_prior(c, tag)
        wv = WeightVector.uniform(["fa", "fb"])
        for x in sorted(images_with_tag(c, tag))[:5]:
            s = early_fused_score(c, x, tag, wv, None, 15)
            assert -prior - 1e-12 <= s <= 1 - prior + 1e-12

    def test_table_matches_per_call_scores(self):
        c, _ = clustered_collection(seed=2)
        tag = "tag000"
        wv = WeightVector.uniform(["fa", "fb"])
        table = early_fused_table(c, tag, wv, None, 15)
        for x, s in scores_of(table).items():
            assert s == early_fused_score(c, x, tag, wv, None, 15)

    def test_vote_table_matches_per_call_scores(self):
        c, _ = clustered_collection(seed=3)
        tag = "tag001"
        table = neighbor_vote_table(c, tag, "fa", 15)
        assert set(table.ids) == set(images_with_tag(c, tag))
        for x, s in scores_of(table).items():
            assert s == neighbor_vote(c, knn(c, "fa", x, 15), tag, 15)


class TestTagPosition:
    def test_first_of_five(self):
        c = make_collection([("x", "u", ["w", "a", "b", "c", "d"])])
        assert tag_position_score(c.record("x"), "w") == 1.0

    def test_fifth_of_five(self):
        c = make_collection([("x", "u", ["a", "b", "c", "d", "w"])])
        assert tag_position_score(c.record("x"), "w") == pytest.approx(0.2, abs=1e-12)

    def test_singleton(self):
        c = make_collection([("x", "u", ["w"])])
        assert tag_position_score(c.record("x"), "w") == 1.0

    def test_absent_tag(self):
        c = make_collection([("x", "u", ["a"])])
        with pytest.raises(ValueError):
            tag_position_score(c.record("x"), "w")

    def test_depends_only_on_position_and_length(self):
        c1 = make_collection([("x", "u", ["a", "w", "b"])])
        c2 = make_collection([("y", "u", ["q", "w", "z"])])
        assert tag_position_score(c1.record("x"), "w") == tag_position_score(
            c2.record("y"), "w"
        )


def co_occurrence_collection():
    # f_w = 100, f_t = 50, f_wt = 25, |S| = 10000
    records = []
    for i in range(25):
        records.append((f"b{i:04d}", "u", ["w", "t"]))
    for i in range(75):
        records.append((f"w{i:04d}", "u", ["w"]))
    for i in range(25):
        records.append((f"t{i:04d}", "u", ["t"]))
    for i in range(9875):
        records.append((f"n{i:04d}", "u", []))
    return make_collection(records)


class TestTagSimilarity:
    def test_perfect_cooccurrence(self):
        c = make_collection([("x1", "u", ["w", "t"]), ("x2", "u", ["w", "t"]), ("x3", "u", [])])
        model = build_tag_similarity(c)
        assert model.sim("w", "t") == 1.0

    def test_disjoint_tags(self):
        c = make_collection([("x1", "u", ["w"]), ("x2", "u", ["t"])])
        model = build_tag_similarity(c)
        assert model.sim("w", "t") == 0.0

    def test_hand_ngd_value(self):
        c = co_occurrence_collection()
        model = build_tag_similarity(c)
        expected = math.exp(
            -(math.log(100) - math.log(25)) / (math.log(10000) - math.log(50))
        )
        assert model.sim("w", "t") == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        c = co_occurrence_collection()
        model = build_tag_similarity(c)
        assert model.sim("w", "t") == model.sim("t", "w")

    def test_identity(self):
        c = co_occurrence_collection()
        model = build_tag_similarity(c)
        assert model.sim("w", "w") == 1.0

    def test_min_count_gates_similarity(self):
        c = make_collection(
            [("x1", "u", ["w", "t"]), ("x2", "u", ["w", "t"]), ("x3", "u", ["w"])]
        )
        model = build_tag_similarity(c, min_count=3)
        assert model.sim("w", "t") == 0.0  # f_t = 2 < 3

    def test_tiny_collection_rejected(self):
        c = make_collection([("x1", "u", ["w"])])
        with pytest.raises(ValueError):
            build_tag_similarity(c)


class TestSemanticField:
    def test_singleton_tag_list(self):
        c = make_collection([("x", "u", ["w"])])
        model = from_pair_table({})
        assert semantic_field_score(c.record("x"), "w", model) == 0.0

    def test_upper_bound(self):
        c = make_collection([("x", "u", ["w", "a", "b"])])
        model = from_pair_table({("w", "a"): 1.0, ("w", "b"): 1.0})
        assert semantic_field_score(c.record("x"), "w", model) == 1.0

    def test_hand_mean(self):
        c = make_collection([("x", "u", ["w", "a", "b"])])
        model = from_pair_table({("w", "a"): 0.2, ("w", "b"): 0.6})
        assert semantic_field_score(c.record("x"), "w", model) == pytest.approx(0.4, abs=1e-9)

    def test_invariant_to_tag_order(self):
        model = from_pair_table({("w", "a"): 0.3, ("w", "b"): 0.9})
        c1 = make_collection([("x", "u", ["w", "a", "b"])])
        c2 = make_collection([("y", "u", ["b", "w", "a"])])
        assert semantic_field_score(c1.record("x"), "w", model) == semantic_field_score(
            c2.record("y"), "w", model
        )

    def test_absent_tag(self):
        c = make_collection([("x", "u", ["a"])])
        model = from_pair_table({})
        with pytest.raises(ValueError):
            semantic_field_score(c.record("x"), "w", model)


class TestKde:
    def test_zero_distance_single_member(self):
        c = line_collection([0.0, 0.0], tags_per_image=[["w"], ["w"]])
        assert tag_ranking_kde_score(c, "x000", "w", "f") == pytest.approx(1.0)

    def test_sole_member_is_an_error(self):
        c = line_collection([0.0, 1.0], tags_per_image=[["w"], []])
        with pytest.raises(ValueError):
            tag_ranking_kde_score(c, "x000", "w", "f")

    def test_hand_kernel_values(self):
        sigma = 0.7
        c = line_collection(
            [0.0, 0.0, sigma], tags_per_image=[["w"], ["w"], ["w"]]
        )
        got = tag_ranking_kde_score(c, "x000", "w", "f", sigma=sigma)
        assert got == pytest.approx(0.5 * (1.0 + math.exp(-1.0)), abs=1e-9)

    def test_non_increasing_as_query_moves_away(self):
        members = [0.0, 0.5, 1.0]
        prev = None
        for pos in (1.5, 2.0, 4.0, 8.0):
            c = line_collection(
                members + [pos],
                tags_per_image=[["w"], ["w"], ["w"], ["w"]],
            )
            s = tag_ranking_kde_score(c, "x003", "w", "f", sigma=1.0)
            if prev is not None:
                assert s <= prev
            prev = s

    def test_pure_function_of_inputs(self):
        c = line_collection(
            list(np.linspace(0, 3, 40)),
            tags_per_image=[["w"] if i % 2 == 0 else [] for i in range(40)],
        )
        a = tag_ranking_kde_score(c, "x000", "w", "f", sample_cap=10, seed=5)
        b = tag_ranking_kde_score(c, "x000", "w", "f", sample_cap=10, seed=5)
        assert a == b

    @settings(max_examples=300)
    @given(distance_arrays())
    def test_median_is_numpys_bit_for_bit(self, d):
        expected = float(np.median(d))
        got = _median(d)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("members", [3, 4, 7, 8, 30])
    def test_sigma_is_numpys_median_of_the_tags_pairs(self, members):
        rng = np.random.default_rng(members)
        coords = rng.integers(0, 3, size=40).astype(float)  # tied distances
        c = line_collection(list(coords), [["w"] if i < members else [] for i in range(40)])
        ii, jj = np.triu_indices(members, k=1)
        d = np.abs(coords[ii] - coords[jj])
        sigma = float(np.median(d))
        assert _kde_sigma(c, "w", "f", sample_cap=10**6, seed=0) == (sigma if sigma > 0 else 1.0)

    def test_sample_cap_changes_support(self):
        c = line_collection(
            list(np.linspace(0, 3, 40)),
            tags_per_image=[["w"] for _ in range(40)],
        )
        full = tag_ranking_kde_score(c, "x000", "w", "f", sigma=1.0, sample_cap=500)
        capped = tag_ranking_kde_score(c, "x000", "w", "f", sigma=1.0, sample_cap=5, seed=1)
        assert full != capped


def tie_heavy_world(rng, n):
    """n images with features quantized to {0, 1, 2} (duplicate vectors and
    tied distances abound); tags drawn from a small vocabulary, some images
    untagged."""
    vocab = ["a", "b", "c"]
    records, rows = [], {"fa": [], "fb": []}
    for i in range(n):
        tags = [t for t in vocab if rng.random() < 0.4]
        records.append((f"s{i:02d}", "u", tags))
        rows["fa"].append(rng.integers(0, 3, size=2))
        rows["fb"].append(rng.integers(0, 3, size=3))
    rows["fa"][1] = rows["fa"][0]  # exact duplicates in both features
    rows["fb"][1] = rows["fb"][0]
    records[0] = (records[0][0], "u", ["solo", "a"])  # a single-image tag
    return make_collection(records, rows)


class TestVotingEngineDifferential:
    """The one-pass voting engine bit for bit against neighbor_vote over knn."""

    def test_tables_match_per_candidate_oracle_on_tie_heavy_worlds(self):
        tags = ("a", "b", "c", "solo", "absent")
        checked = 0
        for seed in range(9):  # seeds 0-5 alone check 3,735 scores, under the floor
            source = tie_heavy_world(np.random.default_rng(seed), 12)
            n = len(source)
            metrics = [("fa", None), ("fb", None)]
            for mode in ("minmax", "rankmax", "none"):
                norms = calibrate_normalizers(source, ["fa", "fb"], mode, 500, seed)
                metrics.append((WeightVector.uniform(["fa", "fb"]), norms))
                metrics.append((WeightVector.normalized(["fa", "fb", "fa"], [0.5, 0.3, 0.2]), norms))
            metrics.append((WeightVector.normalized(["fa", "fb"], [0.3, 0.7]), None))
            for k in (1, n - 2, n - 1, n, n + 3):
                for metric, norms in metrics:
                    shared_pass = vote_tables(source, tags, metric, norms, k)
                    for tag in tags:
                        if isinstance(metric, str):
                            table = neighbor_vote_table(source, tag, metric, k)
                        else:
                            table = early_fused_table(source, tag, metric, norms, k)
                        expected = {
                            x: neighbor_vote(source, knn(source, metric, x, k, norms), tag, k)
                            for x in sorted(images_with_tag(source, tag))
                        }
                        key = (seed, tag, k, metric)
                        assert bits(scores_of(table)) == bits(expected), key
                        assert bits(scores_of(shared_pass[tag])) == bits(expected), key
                        assert shared_pass[tag].estimator == table.estimator
                        checked += len(expected)
        assert checked > 5000

    def test_presets_and_training_tables_match_per_candidate_oracle(self):
        features = ("fa", "fb")
        checked = 0
        for seed in range(6):
            source = tie_heavy_world(np.random.default_rng(seed), 12)
            n = len(source)
            tags = sorted(source.tag_index)
            glob = WeightVector.normalized(features, [0.4, 0.6])
            # "b" shares the global vector; "c" and "solo" fall back to it
            concept_weights = {"a": WeightVector.normalized(features, [0.9, 0.1]), "b": glob}
            for k in (1, n - 2, n - 1, n, n + 3):
                settings = ScoreSettings(
                    features=features, k=k, calib_sample_size=500, seed=seed,
                    weights=glob, concept_weights=concept_weights,
                )
                oracle = {
                    f: {
                        t: {x: neighbor_vote(source, knn(source, f, x, k), t, k)
                            for x in sorted(images_with_tag(source, t))}
                        for t in tags
                    }
                    for f in features
                }
                for f in features:
                    run = score_preset(source, f"tagrel-{f}", settings)
                    for t in tags:
                        assert bits(dict(run.rankings[t])) == bits(oracle[f][t]), (seed, k, f, t)
                        checked += len(oracle[f][t])
                for norm in ("minmax", "rankmax"):
                    normalizers = calibrate_normalizers(
                        source, features, norm, 500, derive_seed(seed, "calibration")
                    )
                    for weighting in ("average", "learning", "learning+"):
                        run = score_preset(source, f"early-{norm}-{weighting}", settings)
                        for t in tags:
                            wv = {
                                "average": WeightVector.uniform(features),
                                "learning": glob,
                                "learning+": concept_weights.get(t, glob),
                            }[weighting]
                            expected = {
                                x: early_fused_score(source, x, t, wv, normalizers, k)
                                for x in sorted(images_with_tag(source, t))
                            }
                            key = (seed, k, norm, weighting, t)
                            assert bits(dict(run.rankings[t])) == bits(expected), key
                            checked += len(expected)
                    training = build_training_tables(source, [*tags, "absent"], settings, norm)
                    assert sorted(training) == tags
                    for t in tags:
                        for table, f in zip(training[t], features):
                            base = dict_table(f"tagrel:{f}", t, oracle[f][t])
                            if norm == "minmax":
                                want = minmax_normalize(base, neighbor_vote_bounds(source, t))
                            else:
                                want = rankmax_normalize(base)
                            assert bits(scores_of(table)) == bits(scores_of(want)), (seed, k, norm, t, f)
                            checked += len(want.scores)
        assert checked > 4000


class TestKdeDifferential:
    """kde_table's candidate blocks bit for bit against the scalar oracle."""

    def test_table_matches_per_candidate_oracle_on_tie_heavy_worlds(self):
        checked = 0
        for seed in range(6):
            n = 12 if seed < 5 else 200  # 200: several blocks
            source = tie_heavy_world(np.random.default_rng(seed), n)
            for tag in ("a", "b", "c", "solo", "absent"):
                members = images_with_tag(source, tag)
                m = len(members)  # support size: m - 1
                # caps below, at and above the support size
                for cap in sorted({1, 500} | {max(m + d, 1) for d in (-2, -1, 0, 1)}):
                    for kde_seed in (0, 987654321):
                        for f in ("fa", "fb"):
                            table = kde_table(source, tag, f, sample_cap=cap, seed=kde_seed)
                            expected = {
                                x: tag_ranking_kde_score(
                                    source, x, tag, f, sample_cap=cap, seed=kde_seed
                                )
                                if m > 1 else 0.0  # no support: scores 0.0
                                for x in sorted(members)
                            }
                            key = (seed, tag, cap, kde_seed, f)
                            assert bits(scores_of(table)) == bits(expected), key
                            checked += len(expected)
        assert checked > 5000


def bits(scores):
    return {x: float(s).hex() for x, s in scores.items()}


class TestOneNeighborPassPerImage:
    def world(self):
        cfg = SyntheticConfig(
            n_images=300,
            n_tags=8,
            n_users=5,
            features=(SyntheticFeature("fa", 3), SyntheticFeature("fb", 3)),
            q_correct=0.9,
            q_incorrect=0.2,
            seed=4,
        )
        c, _ = generate_collection(cfg)
        tagged = sum(1 for rec in c.images if rec.tags)
        candidates = sum(len(ids) for ids in c.tag_index.values())
        assert candidates > 2 * tagged  # images carry several tags each
        return c, tagged

    def count_rows(self, monkeypatch, module, call):
        rows = []
        inner = module.pairwise_l1

        def counted(a, b, *args, **kwargs):
            rows.append(len(a))
            return inner(a, b, *args, **kwargs)

        monkeypatch.setattr(module, "pairwise_l1", counted)
        call()
        return sum(rows)

    def test_single_feature_votes_search_each_tagged_image_once(self, monkeypatch):
        import tagfusion.neighbors as neighbors

        c, tagged = self.world()
        settings = ScoreSettings(features=("fa", "fb"), k=20)
        rows = self.count_rows(
            monkeypatch, neighbors, lambda: score_preset(c, "tagrel-fa", settings)
        )
        assert 0 < rows <= tagged

    def test_early_fusion_searches_each_tagged_image_once_per_feature(self, monkeypatch):
        import tagfusion.neighbors as neighbors

        c, tagged = self.world()
        settings = ScoreSettings(features=("fa", "fb"), k=20, calib_sample_size=500)
        rows = self.count_rows(
            monkeypatch, neighbors, lambda: score_preset(c, "early-rankmax-average", settings)
        )
        assert 0 < rows <= 2 * tagged

    @pytest.mark.parametrize("norm", ["minmax", "rankmax"])
    def test_one_hot_early_fusion_searches_only_the_hot_feature(self, monkeypatch, norm):
        import tagfusion.neighbors as neighbors

        c, tagged = self.world()
        hot = WeightVector.one_hot(("fa", "fb"), "fb")
        settings = ScoreSettings(
            features=("fa", "fb"), k=20, calib_sample_size=500,
            weights=hot, concept_weights={t: hot for t in c.tag_index},
        )
        for weighting in ("learning", "learning+"):
            rows = self.count_rows(
                monkeypatch, neighbors, lambda: score_preset(c, f"early-{norm}-{weighting}", settings)
            )
            assert 0 < rows <= tagged

    def test_vote_memory_does_not_grow_with_the_vocabulary(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        n, vocab = 1500, 3000
        records = [
            (f"i{i:04d}", "u", [f"t{j}" for j in sorted(set(rng.integers(0, vocab, size=2)))])
            for i in range(n)
        ]
        c = make_collection(records, {"fa": list(rng.random((n, 4)))})
        tags = sorted(c.tag_index)
        assert len(tags) > 1500
        tracemalloc.start()
        try:
            tables = vote_tables(c, tags, "fa", None, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(t) for t in tables.values()) == sum(len(r[2]) for r in records)
        # a dense (images x tags) vote or incidence array alone would take n * T * 8 bytes
        assert peak < n * len(tags) * 8 / 4
