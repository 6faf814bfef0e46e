import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagfusion.learning as learning
from tagfusion.collection import (
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    images_with_tag,
)
from tagfusion.estimators import neighbor_vote_table
from tagfusion.evalkit import Qrels, average_precision, ndcg_at
from tagfusion.fusion import late_fuse
from tagfusion.learning import (
    AscentConfig,
    _ConceptEval,
    coordinate_ascent,
    learn_distance_weights,
    learn_per_concept,
    pair_feature_distances,
    simplex_project,
)
from tagfusion.neighbors import DistanceNormalizer, WeightVector, calibrate_normalizers

from conftest import labeled_sample, make_collection
from oracles import (
    dict_table,
    l1_distance,
    mean_metric_rows,
    numpy_learn_distance_weights,
    numpy_simplex_project,
)


def grid_ap_oracle(tables, relevant, resolution=0.005, metric="ap"):
    """Best mean metric over the 1-simplex grid, via the public fusion path."""
    from tagfusion.evalkit import ndcg_at

    names = [t.estimator for t in tables[0]]
    best = -1.0
    steps = int(round(1 / resolution))
    for k in range(steps + 1):
        lam = k * resolution
        if lam == 0.0 and 1.0 - lam == 0.0:
            continue
        wv = WeightVector.normalized(names, [lam, 1.0 - lam])
        values = []
        for tabs, rel in zip(tables, relevant):
            ranking = late_fuse(tabs, wv).ranking()
            if metric == "ap":
                values.append(average_precision(ranking, rel))
            else:
                values.append(ndcg_at(ranking, rel))
        best = max(best, sum(values) / len(values))
    return best


def grid_loss_oracle(distances, labels, resolution=0.0005):
    best = np.inf
    steps = int(round(1 / resolution))
    d = np.asarray(distances)
    y = np.asarray(labels, dtype=float)
    for k in range(steps + 1):
        lam = np.array([k * resolution, 1 - k * resolution])
        loss = float(np.sum((np.exp(-(d @ lam)) - y) ** 2))
        best = min(best, loss)
    return best


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(simplex_project(v), v)

    def test_output_is_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 8))
            p = simplex_project(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-9


# Projection inputs: zeros of both signs, ties (values drawn from a small
# pool), negatives, and magnitudes from 1e-300 to 1e300.
_projection_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 2.0]),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(-10, 10, allow_nan=False), st.integers(-300, 300),
    ),
)


@st.composite
def projection_inputs(draw):
    pool = draw(st.lists(_projection_values, min_size=1, max_size=8))
    m = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))


def assert_projects_like_numpy(v):
    """simplex_project(v) equals the numpy reference bit for bit (signs of
    zero included), or raises ValueError where rounding leaves the
    reference no threshold (IndexError there)."""
    try:
        expected = numpy_simplex_project(v)
    except IndexError:
        with pytest.raises(ValueError, match="no threshold"):
            simplex_project(v)
        return
    got = simplex_project(v)
    assert got.tobytes() == expected.tobytes(), (v, got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestSimplexProjectionMatchesNumpy:
    @settings(max_examples=500)
    @given(projection_inputs())
    def test_bit_for_bit(self, v):
        assert_projects_like_numpy(v)

    def test_seeded_vectors_with_ties_and_wide_magnitudes(self):
        rng = np.random.default_rng(25)
        for _ in range(4000):
            m = int(rng.integers(1, 9))
            v = rng.normal(size=m) * 10.0 ** rng.integers(-300, 301, size=m)
            v[rng.random(m) < 0.2] = 0.0
            if m > 1 and rng.random() < 0.5:  # ties
                v[rng.integers(0, m, size=m)] = v[0]
            assert_projects_like_numpy(v)

    @pytest.mark.parametrize(
        "v", [[], [np.nan], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [np.inf, -np.inf]]
    )
    def test_empty_or_non_finite_refused(self, v):
        with pytest.raises(ValueError, match="nonempty finite vector"):
            simplex_project(np.array(v, dtype=np.float64))

    def test_no_threshold_refused(self):
        v = np.array([1e300])  # 1e300 - 1.0 rounds back to 1e300
        with pytest.raises(IndexError):
            numpy_simplex_project(v)
        with pytest.raises(ValueError, match="no threshold"):
            simplex_project(v)


class TestDistanceLearningMatchesNumpyLoop:
    """The fit carrying exp(-d w) and the residual between iterations equals
    the loop that recomputes them, in every recorded float."""

    @staticmethod
    def assert_same_fit(d, y, names):
        got = learn_distance_weights(d, y, names)
        ref = numpy_learn_distance_weights(d, y, names)
        assert got.weights == ref.weights
        assert got.loss == ref.loss
        assert got.trace == ref.trace
        assert got.weight_trace == ref.weight_trace
        return len(got.trace)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_seeded_pair_sets(self, m):
        steps = 0
        for seed in range(6):
            rng = np.random.default_rng([m, seed])
            n = int(rng.integers(1, 300))
            y = rng.integers(0, 2, size=n)
            # every feature partly informative, each to its own degree
            gap = np.where(y == 1, 0.2, 0.8)[:, None] * rng.uniform(0.2, 1.0, size=m)
            d = rng.uniform(0.0, 1.0, size=(n, m)) + gap
            if seed % 2:
                d = np.round(d * 8) / 8  # quantized: tied distances
            steps += self.assert_same_fit(d, y, [f"f{j}" for j in range(m)])
        assert m == 1 or steps > 6 * 5  # the descent took steps

    def test_pairs_of_a_synthetic_world(self):
        feats = tuple(SyntheticFeature(f"v{j}", 4) for j in range(3))
        c, truth = generate_collection(SyntheticConfig(
            n_images=120, n_tags=4, n_users=10, features=feats,
            q_correct=0.9, q_incorrect=0.05, seed=4,
        ))
        rows, labels = learning._label_matrix(Qrels.from_ground_truth(truth), c)
        norms = calibrate_normalizers(c, [f.name for f in feats], "minmax", sample_size=500)
        for k in range(labels.shape[1]):
            pairs = learning.sample_pairs(labels[:, [k]], 200, seed=k)
            d = pair_feature_distances(c, rows[pairs[:, :2]], [f.name for f in feats], norms)
            for names in (["v0", "v1"], ["v0", "v1", "v2"]):
                self.assert_same_fit(d[:, : len(names)], pairs[:, 2], names)


class TestSamplePairs:
    def toy(self):
        records = [(f"x{i:02d}", "u", []) for i in range(100)]
        c = make_collection(records)
        q = Qrels()
        for i in range(100):
            q.add("c1" if i < 50 else "c2", f"x{i:02d}", 1)
        return c, q

    def test_shared_concept_is_positive(self):
        c, q = self.toy()
        pairs = labeled_sample(q, c, 200, seed=0)
        for p in pairs:
            shared = bool(
                ({t for t in q.tags() if p.x in q.relevant(t)})
                & ({t for t in q.tags() if p.x_other in q.relevant(t)})
            )
            assert p.label == (1 if shared else 0)

    def test_balanced_split(self):
        c, q = self.toy()
        pairs = labeled_sample(q, c, 1000, seed=1)
        assert len(pairs) == 1000
        assert sum(p.label for p in pairs) == 500

    def test_no_duplicate_unordered_pairs(self):
        c, q = self.toy()
        pairs = labeled_sample(q, c, 800, seed=2)
        keys = {frozenset((p.x, p.x_other)) for p in pairs}
        assert len(keys) == len(pairs)

    def test_deterministic(self):
        c, q = self.toy()
        assert labeled_sample(q, c, 100, seed=3) == labeled_sample(q, c, 100, seed=3)

    def test_no_negative_pairs_available(self):
        records = [(f"x{i}", "u", []) for i in range(4)]
        c = make_collection(records)
        q = Qrels()
        for i in range(4):
            q.add("c1", f"x{i}", 1)
        with pytest.raises(ValueError, match="negative"):
            labeled_sample(q, c, 10)

    def test_no_positive_pairs_available(self):
        records = [(f"x{i}", "u", []) for i in range(4)]
        c = make_collection(records)
        q = Qrels()
        for i in range(4):
            q.add(f"c{i}", f"x{i}", 1)
        with pytest.raises(ValueError, match="positive"):
            labeled_sample(q, c, 10)

    def test_scarce_positives_fall_back_to_natural_proportions(self):
        records = [(f"x{i}", "u", []) for i in range(10)]
        c = make_collection(records)
        q = Qrels()
        q.add("c1", "x0", 1)
        q.add("c1", "x1", 1)
        for i in range(2, 10):
            q.add(f"z{i}", f"x{i}", 1)
        pairs = labeled_sample(q, c, 20, seed=4)
        assert len(pairs) == 20
        assert sum(p.label for p in pairs) == 1  # only one positive pair exists


class TestPairFeatureDistances:
    def test_matches_scalar_l1_with_minmax_clamp(self):
        rng = np.random.default_rng(5)
        n = 30
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(n)],
            {"f8": rng.normal(size=(n, 8)), "f64": rng.uniform(0, 3, size=(n, 64))},
        )
        pairs = np.array([(a, b) for a, b in rng.integers(0, n, size=(200, 2)) if a != b])
        normalizers = {
            "f8": DistanceNormalizer("minmax", 0.0, 10.0),
            "f64": DistanceNormalizer("none"),
        }
        got = pair_feature_distances(c, pairs, ["f8", "f64"], normalizers)
        for i, (a, b) in enumerate(pairs.tolist()):
            x, x_other = f"x{a:02d}", f"x{b:02d}"
            d8 = l1_distance(c.vector("f8", x), c.vector("f8", x_other))
            d64 = l1_distance(c.vector("f64", x), c.vector("f64", x_other))
            assert got[i, 0] == min(1.0, max(0.0, d8 / 10.0))
            assert got[i, 1] == d64
        assert 0 < (got[:, 0] == 1.0).sum() < len(pairs)  # the clamp is exercised

    def test_rankmax_rejected(self):
        c = make_collection([("a", "u", []), ("b", "u", [])], {"f": [[0.0], [1.0]]})
        with pytest.raises(ValueError):
            pair_feature_distances(c, np.array([[0, 1]]), ["f"], {"f": DistanceNormalizer("rankmax")})


class TestDistanceLearning:
    def separating_instance(self, rng, n_pairs=80):
        labels = rng.integers(0, 2, size=n_pairs)
        d_a = np.where(labels == 1, 0.05, 2.0) + rng.uniform(0, 0.01, n_pairs)
        d_b = rng.uniform(0.5, 1.5, size=n_pairs)  # label-independent noise
        return np.column_stack([d_a, d_b]), labels

    def test_separating_feature_gets_larger_weight(self):
        rng = np.random.default_rng(1)
        d, y = self.separating_instance(rng)
        result = learn_distance_weights(d, y, ["fa", "fb"])
        w = dict(zip(result.weights.names, result.weights.weights))
        assert w["fa"] > w["fb"]

    def test_identical_features_reach_flat_minimum(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0, 1.5, size=40)
        y = rng.integers(0, 2, size=40)
        d = np.column_stack([base, base])
        result = learn_distance_weights(d, y, ["fa", "fb"])
        oracle = grid_loss_oracle(d, y)
        assert abs(result.loss - oracle) <= 1e-6

    def test_single_feature_returns_weight_one(self):
        d = np.array([[0.3], [0.9]])
        y = [1, 0]
        result = learn_distance_weights(d, y, ["fa"])
        assert result.weights.weights == (1.0,)
        expected = float(np.sum((np.exp(-d[:, 0]) - np.array(y)) ** 2))
        assert result.loss == pytest.approx(expected, abs=1e-12)

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        d, y = self.separating_instance(rng)
        result = learn_distance_weights(d, y, ["fa", "fb"])
        assert list(result.trace) == sorted(result.trace, reverse=True)

    def test_matches_grid_oracle_on_toys(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d, y = self.separating_instance(rng, n_pairs=60)
            result = learn_distance_weights(d, y, ["fa", "fb"])
            oracle = grid_loss_oracle(d, y)
            assert result.loss <= oracle + 1e-6

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(4)
        d, y = self.separating_instance(rng)
        result = learn_distance_weights(d, y, ["fa", "fb"])
        assert all(w >= 0 for w in result.weights.weights)
        assert abs(sum(result.weights.weights) - 1.0) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        d, y = self.separating_instance(rng)
        r1 = learn_distance_weights(d, y, ["fa", "fb"])
        r2 = learn_distance_weights(d, y, ["fa", "fb"])
        assert r1.weights == r2.weights and r1.loss == r2.loss

    def test_non_finite_distances_rejected(self):
        with pytest.raises(ValueError):
            learn_distance_weights(np.array([[np.inf, 0.1]]), [1], ["fa", "fb"])


def perfect_and_inverted(n=10, n_rel=3, tag="w"):
    ids = [f"c{i:02d}" for i in range(n)]
    relevant = frozenset(ids[:n_rel])
    good = dict_table("good", tag, {x: float(n - i) for i, x in enumerate(ids)})
    bad = dict_table("bad", tag, {x: float(i) for i, x in enumerate(ids)})
    q = Qrels()
    for x in relevant:
        q.add(tag, x, 1)
    return {tag: [good, bad]}, q, relevant


class TestCoordinateAscent:
    def test_perfect_vs_inverted_reaches_optimum(self):
        tables, q, relevant = perfect_and_inverted()
        result = coordinate_ascent(tables, q, AscentConfig(seed=0))
        assert result.objective == pytest.approx(1.0, abs=1e-9)
        oracle = grid_ap_oracle([tables["w"]], [relevant])
        assert abs(result.objective - oracle) <= 1e-6

    def test_single_estimator_returns_weight_one(self):
        tables, q, _ = perfect_and_inverted()
        solo = {"w": [tables["w"][0]]}
        result = coordinate_ascent(solo, q)
        assert result.weights.weights == (1.0,)

    def test_trace_objective_non_decreasing(self):
        rng = np.random.default_rng(6)
        tables, q = random_instances(rng, n=12)
        result = coordinate_ascent(tables, q, AscentConfig(seed=1))
        objs = [m[3] for m in result.trace]
        assert objs == sorted(objs)

    def test_learned_at_least_uniform(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            tables, q = random_instances(np.random.default_rng(seed), n=10)
            cfg = AscentConfig(seed=seed)
            result = coordinate_ascent(tables, q, cfg)
            uniform = WeightVector.uniform(result.weights.names)
            uniform_obj = mean_ap(tables, q, uniform)
            assert result.objective >= uniform_obj - 1e-12

    def test_deterministic(self):
        tables, q = random_instances(np.random.default_rng(8), n=9)
        cfg = AscentConfig(seed=4)
        r1 = coordinate_ascent(tables, q, cfg)
        r2 = coordinate_ascent(tables, q, cfg)
        assert r1.weights == r2.weights and r1.objective == r2.objective

    def test_no_relevant_training_items_rejected(self):
        tables, _, _ = perfect_and_inverted()
        with pytest.raises(ValueError):
            coordinate_ascent(tables, Qrels(), AscentConfig())

    def test_ndcg_metric_supported(self):
        tables, q, _ = perfect_and_inverted()
        result = coordinate_ascent(tables, q, AscentConfig(metric="ndcg", seed=0))
        assert result.objective == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cutoff", [0, -5])
    def test_cutoff_below_one_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            AscentConfig(metric="ndcg", cutoff=cutoff)

    @pytest.mark.parametrize("name", ["delta0", "growth", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_step_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AscentConfig(**{name: value})

    def test_concept_metric_equals_evaluation_bit_for_bit(self):
        # with one table at weight 1 the ascent ranks exactly as the table
        # does, so its metric must be evalkit's to the last bit
        checked = 0
        for seed in (1, 2, 3, 4, 5):
            c, truth = generate_collection(SyntheticConfig(
                n_images=400, n_tags=20, n_users=20,
                features=(SyntheticFeature("visa", 4),), q_correct=0.9, q_incorrect=0.05,
                seed=seed,
            ))
            for tag in sorted(truth):
                if not images_with_tag(c, tag):
                    continue
                table = neighbor_vote_table(c, tag, "visa", 20)
                relevant = frozenset(truth[tag])
                ce = _ConceptEval([table], relevant)
                ranking = table.ranking()
                w = np.array([[1.0]])
                assert ce.metric(w, "ap", 100)[0] == average_precision(ranking, relevant)
                for cutoff in (10, 100):
                    assert ce.metric(w, "ndcg", cutoff)[0] == ndcg_at(ranking, relevant, cutoff)
                checked += 1
        assert checked == 100


def mean_ap(tables_per_concept, qrels, wv):
    values = []
    for tag, tables in tables_per_concept.items():
        ranking = late_fuse(tables, wv).ranking()
        values.append(average_precision(ranking, qrels.relevant(tag)))
    return sum(values) / len(values)


def random_instances(rng, n=8, m=2, concepts=2):
    tables = {}
    q = Qrels()
    for k in range(concepts):
        tag = f"t{k}"
        ids = [f"c{i:02d}" for i in range(n)]
        tabs = [
            dict_table(f"e{j}", tag, {x: float(v) for x, v in zip(ids, rng.random(n))})
            for j in range(m)
        ]
        tables[tag] = tabs
        rel = rng.choice(n, size=max(1, n // 3), replace=False)
        for i in rel:
            q.add(tag, ids[i], 1)
    return tables, q


class TestPerConcept:
    def two_concepts(self):
        # concept t0 perfectly served by e0, concept t1 by e1
        ids = [f"c{i}" for i in range(6)]
        t0 = {
            "e0": {x: float(6 - i) for i, x in enumerate(ids)},
            "e1": {x: float(i) for i, x in enumerate(ids)},
        }
        t1 = {
            "e0": {x: float(i) for i, x in enumerate(ids)},
            "e1": {x: float(6 - i) for i, x in enumerate(ids)},
        }
        tables = {
            "t0": [dict_table("e0", "t0", t0["e0"]), dict_table("e1", "t0", t0["e1"])],
            "t1": [dict_table("e0", "t1", t1["e0"]), dict_table("e1", "t1", t1["e1"])],
        }
        q = Qrels()
        for x in ids[:2]:
            q.add("t0", x, 1)
            q.add("t1", x, 1)
        return tables, q

    def test_per_concept_beats_or_matches_global(self):
        tables, q = self.two_concepts()
        cfg = AscentConfig(seed=0)
        result = learn_per_concept(tables, q, cfg)
        global_map = mean_ap(tables, q, result.global_weights)
        per_values = []
        for tag, tabs in tables.items():
            ranking = late_fuse(tabs, result.per_concept[tag]).ranking()
            per_values.append(average_precision(ranking, q.relevant(tag)))
        assert sum(per_values) / len(per_values) >= global_map - 1e-12
        assert sum(per_values) / len(per_values) == pytest.approx(1.0, abs=1e-9)

    def test_zero_positive_concept_falls_back_flagged(self):
        tables, q = self.two_concepts()
        tables["t2"] = [
            dict_table("e0", "t2", {"c0": 0.5, "c1": 0.4}),
            dict_table("e1", "t2", {"c0": 0.2, "c1": 0.9}),
        ]
        result = learn_per_concept(tables, q, AscentConfig(seed=0))
        assert "t2" in result.fallbacks
        assert result.per_concept["t2"] == result.global_weights

    def test_min_pos_zero_with_trainable_concepts_has_no_fallbacks(self):
        tables, q = self.two_concepts()
        result = learn_per_concept(tables, q, AscentConfig(seed=0), min_pos=0)
        assert result.fallbacks == frozenset()


# ---------------------------------------------------------------------------
# the batched ascent objective against the one-vector-at-a-time oracle
# ---------------------------------------------------------------------------

_WEIGHTS = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0, 2.35]) | st.floats(0, 3)


@st.composite
def batched_objectives(draw):
    """Concepts with quantized (tie-heavy) scores, a batch of raw weight rows
    (zero weights, and sometimes an all-zero row), a metric and a cutoff."""
    m = draw(st.integers(1, 4))
    quanta = draw(st.integers(1, 4))
    evals = []
    # from 9 concepts on, numpy's pairwise mean over them is no longer a plain loop
    for c in range(draw(st.sampled_from([1, 2, 3, 9, 20]))):
        n = draw(st.sampled_from([1, 2, 3, 7, 20, 45]))  # n = 1: a one-candidate concept
        ids = [f"c{i:02d}" for i in range(n)]
        scores = draw(st.lists(st.integers(0, quanta), min_size=n * m, max_size=n * m))
        tables = [
            dict_table(f"e{j}", f"t{c}", {x: scores[i * m + j] / quanta for i, x in enumerate(ids)})
            for j in range(m)
        ]
        if draw(st.booleans()):
            relevant = frozenset(ids)  # an all-relevant concept
        else:
            flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            flags[draw(st.integers(0, n - 1))] = True
            relevant = frozenset(x for x, f in zip(ids, flags) if f)
        evals.append(_ConceptEval(tables, relevant))
    rows = draw(st.lists(st.lists(_WEIGHTS, min_size=m, max_size=m), min_size=1, max_size=22))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0.0] * m)
    metric = draw(st.sampled_from(["ap", "ndcg"]))
    cutoff = draw(st.sampled_from([1, 2, 5, 46, 100]))  # 46 and 100 exceed every n
    return evals, np.array(rows, dtype=np.float64), metric, cutoff


class TestBatchedObjective:
    @settings(max_examples=300)
    @given(problem=batched_objectives())
    def test_batch_equals_scalar_oracle_bit_for_bit(self, problem):
        evals, raw, metric, cutoff = problem
        got = learning._mean_metric(evals, raw, metric, cutoff)
        want = mean_metric_rows(evals, raw, metric, cutoff)
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert [v is None for v in got] == (raw.sum(axis=1) <= 0).tolist()

    def test_steps_below_the_weights_resolution_leave_no_candidate(self):
        # 0.5 + delta0 * growth^j rounds to 0.5: every line search is empty
        tables, q, _ = perfect_and_inverted()
        result = coordinate_ascent(tables, q, AscentConfig(delta0=1e-300, restarts=1))
        assert result.trace == () and result.weights.weights == (0.5, 0.5)

    def test_tied_candidates_go_to_the_first_in_line_search_order(self):
        # every w_e0 above w_e1 ranks the relevant c1 first: the first such
        # candidate, 0.5 + delta0, wins the tie
        tables = {"w": [
            dict_table("e0", "w", {"c0": 0.0, "c1": 1.0}),
            dict_table("e1", "w", {"c0": 1.0, "c1": 0.0}),
        ]}
        q = Qrels()
        q.add("w", "c1", 1)
        result = coordinate_ascent(tables, q, AscentConfig(restarts=1))
        assert result.trace == ((1, "e0", 0.55, 1.0),)

    def test_line_search_scores_each_candidate_once(self, monkeypatch):
        # from w_i = 0.5, every w_i - 0.05 * 2^j with j >= 4 clamps to 0.0
        batches = []
        mean_metric = learning._mean_metric

        def recorded(evals, raw, metric, cutoff):
            batches.append(raw.copy())
            return mean_metric(evals, raw, metric, cutoff)

        monkeypatch.setattr(learning, "_mean_metric", recorded)
        tables, q, _ = perfect_and_inverted()
        coordinate_ascent(tables, q, AscentConfig(restarts=1))
        for t, q, cfg in self.tie_heavy_instances():
            coordinate_ascent(t, q, cfg)
        assert len(batches) > 12
        assert all(len(np.unique(raw, axis=0)) == len(raw) for raw in batches)

    @staticmethod
    def tie_heavy_instances():
        for seed in range(12):
            rng = np.random.default_rng(seed)
            m = 1 + seed % 4
            tables, q = {}, Qrels()
            for c in range(1 + seed % 3):
                n = int(rng.integers(3, 30))
                ids = [f"c{i:02d}" for i in range(n)]
                tables[f"t{c}"] = [
                    dict_table(f"e{j}", f"t{c}", {x: float(v) for x, v in zip(ids, rng.integers(0, 3, n) / 2)})
                    for j in range(m)
                ]
                if c < 2 or seed % 2:  # otherwise a concept without relevant items
                    for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
                        q.add(f"t{c}", ids[i], 1)
            cfg = AscentConfig(
                metric=("ap", "ndcg")[seed % 2], cutoff=(1, 5, 100)[seed % 3],
                steps=1 + seed % 10, restarts=1 + seed % 3, seed=seed,
            )
            yield tables, q, cfg

    def test_whole_ascent_equals_oracle_ascent(self, monkeypatch):
        batched = [
            (coordinate_ascent(t, q, cfg), learn_per_concept(t, q, cfg, min_pos=2))
            for t, q, cfg in self.tie_heavy_instances()
        ]
        monkeypatch.setattr(learning, "_mean_metric", mean_metric_rows)
        scalar = [
            (coordinate_ascent(t, q, cfg), learn_per_concept(t, q, cfg, min_pos=2))
            for t, q, cfg in self.tie_heavy_instances()
        ]
        assert batched == scalar
        assert sum(len(r.trace) for r, _ in batched) > 0
