import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfusion.neighbors import (
    CalibrationError,
    DistanceNormalizer,
    WeightVector,
    _percentile_upper,
    calibrate_normalizer,
    knn,
    pairwise_l1,
)

from conftest import line_collection, make_collection
from oracles import combined_distance, l1_distance, rankmax_rows


class TestL1:
    def test_identity(self):
        a = np.array([0.3, -1.2, 5.0])
        assert l1_distance(a, a) == 0.0

    def test_hand_value(self):
        assert l1_distance(np.array([1.0, 2.0]), np.array([3.0, 1.0])) == 3.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 6))
            assert l1_distance(a, b) == l1_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            l1_distance(np.zeros(2), np.zeros(3))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 5))
            assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(9, 4))
        d = pairwise_l1(a, b)
        for i in range(7):
            for j in range(9):
                assert d[i, j] == l1_distance(a[i], b[j])


class TestWeightVector:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightVector(("a", "b"), (bad, bad))
        with pytest.raises(ValueError, match="finite"):
            WeightVector.normalized(["a", "b"], [bad, 1.0])

    def test_normalized_lands_on_simplex(self):
        wv = WeightVector.normalized(["a", "b", "c"], [2.0, 3.0, 5.0])
        assert abs(sum(wv.weights) - 1.0) <= 1e-9
        assert wv.weights[2] == pytest.approx(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightVector.normalized(["a", "b"], [0.5, -0.1])

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            WeightVector.normalized(["a"], [0.0])

    def test_one_hot(self):
        wv = WeightVector.one_hot(["a", "b"], "b")
        assert wv.weights == (0.0, 1.0)

    def test_unnormalized_constructor_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(("a", "b"), (0.7, 0.7))


class TestCalibration:
    def test_constant_feature_is_degenerate(self):
        c = make_collection(
            [(f"x{i}", "u", []) for i in range(10)],
            {"f": [[1.0, 2.0]] * 10},
        )
        with pytest.raises(CalibrationError, match="degenerate"):
            calibrate_normalizer(c, "f", "minmax", sample_size=100, seed=0)

    def test_percentile_of_known_multiset(self):
        # 99.5th percentile of {1..1000} with linear interpolation
        dists = np.arange(1, 1001, dtype=np.float64)
        expected = np.percentile(dists, 99.5)
        assert _percentile_upper(dists) == expected
        assert abs(_percentile_upper(dists) - 995.0) < 0.1

    def test_mode_none_is_passthrough(self):
        c = line_collection([0.0, 1.0])
        norm = calibrate_normalizer(c, "f", "none")
        assert norm.mode == "none"

    def test_rankmax_needs_no_state(self):
        c = line_collection([0.0, 1.0])
        norm = calibrate_normalizer(c, "f", "rankmax")
        assert norm.mode == "rankmax"

    def test_fewer_than_two_images(self):
        c = line_collection([0.0])
        with pytest.raises(CalibrationError):
            calibrate_normalizer(c, "f", "minmax")

    @pytest.mark.parametrize("mode", ["minmax", "rankmax", "none"])
    @pytest.mark.parametrize("sample_size", [0, -3])
    def test_sample_size_below_one_rejected(self, mode, sample_size):
        c = line_collection([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="sample_size must be >= 1"):
            calibrate_normalizer(c, "f", mode, sample_size=sample_size)

    def test_minmax_bounds_cover_typical_distances(self):
        rng = np.random.default_rng(3)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(50)],
            {"f": rng.uniform(0, 1, size=(50, 4))},
        )
        norm = calibrate_normalizer(c, "f", "minmax", sample_size=5000, seed=1)
        assert norm.lower == 0.0
        assert 0.5 < norm.upper < 4.0


def two_feature_pair():
    # two images; raw L1 distances are 0.2 under fa and 0.4 under fb
    return make_collection(
        [("x1", "u", []), ("x2", "u", [])],
        {"fa": [[0.0], [0.2]], "fb": [[0.0], [0.4]]},
    )


class TestCombinedDistance:
    def test_one_hot_equals_l1(self):
        c = two_feature_pair()
        wv = WeightVector.one_hot(["fa", "fb"], "fa")
        d = combined_distance(c, "x1", "x2", wv)
        assert d == l1_distance(np.array([0.0]), np.array([0.2]))

    def test_uniform_hand_value(self):
        c = two_feature_pair()
        wv = WeightVector.uniform(["fa", "fb"])
        assert combined_distance(c, "x1", "x2", wv) == pytest.approx(0.3, abs=1e-9)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(4)
        c = make_collection(
            [(f"x{i}", "u", []) for i in range(12)],
            {
                "fa": rng.uniform(0, 1, size=(12, 3)),
                "fb": rng.uniform(0, 1, size=(12, 2)),
            },
        )
        normalizers = {
            "fa": calibrate_normalizer(c, "fa", "minmax", 2000, 0),
            "fb": calibrate_normalizer(c, "fb", "minmax", 2000, 1),
        }
        wv = WeightVector.normalized(["fa", "fb"], [0.3, 0.7])
        for other in ("x1", "x5", "x9"):
            d = combined_distance(c, "x0", other, wv, normalizers)
            assert 0.0 <= d <= 1.0

    def test_unknown_feature_name(self):
        c = two_feature_pair()
        wv = WeightVector.uniform(["fa", "nope"])
        with pytest.raises(KeyError, match="nope"):
            combined_distance(c, "x1", "x2", wv)

    def test_rankmax_is_fraction_strictly_closer(self):
        c = line_collection([0.0, 1.0, 2.0, 5.0])
        wv = WeightVector.one_hot(["f"], "f")
        normalizers = {"f": DistanceNormalizer(mode="rankmax")}
        # from x000: candidates x001 (d=1), x002 (d=2), x003 (d=5)
        assert combined_distance(c, "x000", "x001", wv, normalizers) == 0.0
        assert combined_distance(c, "x000", "x002", wv, normalizers) == pytest.approx(1 / 3)
        assert combined_distance(c, "x000", "x003", wv, normalizers) == pytest.approx(2 / 3)


class TestKnn:
    def test_three_images_on_a_line(self):
        c = line_collection([0.0, 1.0, 5.0])
        nl = knn(c, "f", "x000", 1)
        assert nl.entries == (("x001", 1.0),)

    def test_k_equals_all_others(self):
        c = line_collection([0.0, 1.0, 5.0])
        nl = knn(c, "f", "x000", 2)
        assert nl.entries == (("x001", 1.0), ("x002", 5.0))

    def test_k_larger_than_collection_returns_all(self):
        c = line_collection([0.0, 1.0, 5.0])
        nl = knn(c, "f", "x000", 99)
        assert [i for i, _ in nl.entries] == ["x001", "x002"]

    def test_one_hot_weights_match_single_feature(self):
        rng = np.random.default_rng(5)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(20)],
            {
                "fa": rng.uniform(0, 1, size=(20, 3)),
                "fb": rng.uniform(0, 1, size=(20, 3)),
            },
        )
        wv = WeightVector.one_hot(["fa", "fb"], "fa")
        for q in ("x00", "x07", "x19"):
            assert knn(c, wv, q, 5) == knn(c, "fa", q, 5)

    def test_unknown_query_id(self):
        c = line_collection([0.0, 1.0])
        with pytest.raises(KeyError):
            knn(c, "f", "zz", 1)

    def test_query_never_its_own_neighbor(self):
        c = line_collection([0.0, 0.0, 1.0])
        nl = knn(c, "f", "x000", 5)
        assert "x000" not in nl.ids()

    def test_tie_broken_by_ascending_id(self):
        c = line_collection([0.0, 1.0, 1.0, 1.0])
        nl = knn(c, "f", "x000", 3)
        assert nl.ids() == ("x001", "x002", "x003")

    def test_invariant_to_collection_order(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(0, 1, size=(15, 2))
        records = [(f"x{i:02d}", "u", []) for i in range(15)]
        c1 = make_collection(records, {"f": rows})
        perm = rng.permutation(15)
        c2 = make_collection(
            [records[i] for i in perm], {"f": rows[perm]}
        )
        for q in ("x00", "x08"):
            assert knn(c1, "f", q, 6) == knn(c2, "f", q, 6)

    def test_prefix_property(self):
        rng = np.random.default_rng(7)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(25)],
            {"f": rng.uniform(0, 1, size=(25, 3))},
        )
        for k in (1, 3, 7):
            small = knn(c, "f", "x00", k)
            big = knn(c, "f", "x00", k + 1)
            assert big.entries[:k] == small.entries

    def test_rankmax_invariant_to_feature_scaling(self):
        rng = np.random.default_rng(8)
        rows_a = rng.uniform(0, 1, size=(18, 2))
        rows_b = rng.uniform(0, 1, size=(18, 3))
        records = [(f"x{i:02d}", "u", []) for i in range(18)]
        c1 = make_collection(records, {"fa": rows_a, "fb": rows_b})
        c2 = make_collection(records, {"fa": rows_a * 37.5, "fb": rows_b})
        wv = WeightVector.normalized(["fa", "fb"], [0.6, 0.4])
        normalizers = {
            "fa": DistanceNormalizer(mode="rankmax"),
            "fb": DistanceNormalizer(mode="rankmax"),
        }
        for q in ("x00", "x09"):
            assert knn(c1, wv, q, 6, normalizers) == knn(c2, wv, q, 6, normalizers)
            assert combined_distance(c1, q, "x17", wv, normalizers) == combined_distance(
                c2, q, "x17", wv, normalizers
            )

    def test_uniform_over_duplicated_feature_equals_single(self):
        rng = np.random.default_rng(9)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(12)],
            {"f": rng.uniform(0, 1, size=(12, 2))},
        )
        wv = WeightVector.uniform(["f", "f"])
        norm = {"f": calibrate_normalizer(c, "f", "minmax", 1000, 0)}
        one = {"f": norm["f"]}
        wv1 = WeightVector.one_hot(["f"], "f")
        for other in ("x03", "x11"):
            assert combined_distance(c, "x00", other, wv, norm) == combined_distance(
                c, "x00", other, wv1, one
            )

    def test_k_must_be_positive(self):
        c = line_collection([0.0, 1.0])
        with pytest.raises(ValueError):
            knn(c, "f", "x000", 0)

    def test_pair_distance_agrees_with_knn_entries(self):
        rng = np.random.default_rng(11)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(16)],
            {
                "fa": rng.uniform(0, 1, size=(16, 2)),
                "fb": rng.uniform(0, 1, size=(16, 3)),
            },
        )
        wv = WeightVector.normalized(["fa", "fb"], [0.4, 0.6])
        for mode in ("none", "rankmax", "minmax"):
            normalizers = {
                f: calibrate_normalizer(c, f, mode, 2000, s)
                for s, f in enumerate(("fa", "fb"))
            }
            nl = knn(c, wv, "x00", 15, normalizers)
            for other, dist in nl.entries:
                assert dist == combined_distance(c, "x00", other, wv, normalizers)

    def test_concurrent_queries_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(10)
        c = make_collection(
            [(f"x{i:02d}", "u", []) for i in range(40)],
            {"f": rng.uniform(0, 1, size=(40, 3))},
        )
        queries = [f"x{i:02d}" for i in range(40)]
        serial = [knn(c, "f", q, 8) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda q: knn(c, "f", q, 8), queries))
        assert threaded == serial


@st.composite
def distance_blocks(draw, quantized=st.booleans()):
    """(B, n) raw distances with own slots: quantized (tie-heavy) or free
    floats, some rows repeated, each own slot -1 or an index in the row."""
    n = draw(st.integers(2, 12))
    if draw(quantized):
        values = st.integers(0, 40).map(lambda v: v / 4)
    else:
        values = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=5))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    own = draw(st.lists(st.integers(-1, n - 1), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.float64), np.array(own)


def with_own_nan(d, own):
    d = d.copy()
    rows = np.nonzero(own >= 0)[0]
    d[rows, own[rows]] = np.nan
    return d


class TestRankMaxApply:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(block=distance_blocks())
    def test_block_matches_per_row_oracle_bitwise(self, block):
        d, own = block
        got = DistanceNormalizer("rankmax").apply(with_own_nan(d, own))
        assert got.tobytes() == rankmax_rows(d, own).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(block=distance_blocks(quantized=st.just(True)))
    def test_invariant_under_strictly_increasing_transforms(self, block):
        d, own = block  # on this grid each transform stays strictly increasing in floats
        norm = DistanceNormalizer("rankmax")
        want = norm.apply(with_own_nan(d, own)).tobytes()
        for transform in (lambda x: x**3 + 7.0, np.sqrt, lambda x: -np.exp(-x)):
            assert norm.apply(with_own_nan(transform(d), own)).tobytes() == want

    def test_row_without_candidates_stays_nan(self):
        got = DistanceNormalizer("rankmax").apply(np.array([[np.nan], [2.0]]))
        assert got.tobytes() == np.array([[np.nan], [0.0]]).tobytes()
