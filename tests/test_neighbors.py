import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagfusion.neighbors as neighbors
from tagfusion.estimators import kde_table, vote_tables
from tagfusion.neighbors import (
    CalibrationError,
    DistanceNormalizer,
    WeightVector,
    _CHUNK_BYTES,
    _percentile_upper,
    calibrate_normalizer,
    distance_block,
    knn,
    pairwise_l1,
    top_k,
)

from conftest import distance_arrays, line_collection, make_collection
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


def mixed_scale_rows(rng, rows, dim):
    """Normal components scaled by powers of ten from 1e-3 to 1e3."""
    return rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-3, 4, size=(rows, dim))


class TestL1Kernel:
    @pytest.mark.parametrize(
        "dim", [1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 200, 257, 300]
    )
    def test_matches_numpy_row_sums_bitwise(self, dim):
        # b sizes around the one where a chunk shrinks from 8 rows to 7
        edge = _CHUNK_BYTES // (8 * 8)
        rng = np.random.default_rng(dim)
        for rows in (1, 2, 7, 65):
            a = mixed_scale_rows(rng, rows, dim)
            for size in (0, 1, 3, edge - 1, edge, edge + 1):
                b = mixed_scale_rows(rng, size, dim)
                b[: min(rows, size) // 2] = a[: min(rows, size) // 2]  # queries found in b
                b[-1:] = b[:1]  # a duplicate vector within b
                want = np.array([np.abs(row - b).sum(axis=1) for row in a]).reshape(rows, size)
                assert np.array_equal(pairwise_l1(a, b), want), (rows, size)


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

    @settings(max_examples=300)
    @given(distance_arrays())
    def test_percentile_is_numpys_bit_for_bit(self, dists):
        expected = float(np.percentile(dists, 99.5))
        got = _percentile_upper(dists)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_percentile_of_signed_values_and_every_small_size(self):
        rng = np.random.default_rng(25)
        for n in range(1, 400):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301)
            x[rng.random(n) < 0.3] = x[0]  # ties
            assert _percentile_upper(x) == float(np.percentile(x, 99.5))

    def test_percentile_leaves_its_input_unchanged(self):
        dists = np.arange(10.0)[::-1].copy()
        _percentile_upper(dists)
        assert dists.tolist() == list(np.arange(10.0)[::-1])

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

    @pytest.mark.parametrize("mode", ["none", "minmax", "rankmax"])
    def test_zero_weight_feature_skip_is_bit_identical(self, mode):
        """Skipping a weight-0 feature gives the bytes of adding 0 * its block."""
        rng = np.random.default_rng(5)
        n = 40
        feats = {f: np.round(rng.uniform(0, 1, size=(n, 2)), 1) for f in ("fa", "fb", "fc")}
        c = make_collection([(f"x{i:02d}", "u", []) for i in range(n)], feats)
        normalizers = {
            f: calibrate_normalizer(c, f, mode, 500, k) for k, f in enumerate(("fa", "fb", "fc"))
        }
        rows = np.array([0, 1, 2, 3, 4, 5, 39, 7, 8])
        for weights in ([0.4, 0.6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.25, 0.75]):
            wv = WeightVector(("fa", "fb", "fc"), tuple(weights))
            full = np.zeros((len(rows), n))
            for f, lam in zip(wv.names, wv.weights):
                full += normalizers[f].apply(distance_block(c, f, rows)) * lam
            got = distance_block(c, wv, rows, normalizers)
            assert got.tobytes() == full.tobytes()


class TestDistanceBlockRows:
    """Queries are collection rows: each row's own column is nan, nothing else changes."""

    def world(self, n):
        """n images on a grid of halves (tied distances), images 0 and 1 equal."""
        rng = np.random.default_rng(n)
        feats = {f: rng.integers(0, 3, size=(n, dim)) / 2 for f, dim in (("fa", 2), ("fb", 3))}
        for m in feats.values():
            m[1] = m[0]
        return make_collection([(f"x{i:02d}", "u", []) for i in range(n)], feats), feats

    CASES = [  # (n, rows): one query, repeated rows, more queries than images
        (7, [3]),
        (7, [0]),
        (7, [0, 1, 0, 5, 5, 1]),
        (7, [i % 7 for i in range(11)]),
        (2, [1, 0, 1]),
    ]

    @pytest.mark.parametrize("n, rows", CASES)
    def test_raw_block_is_pairwise_l1_with_own_column_nan(self, n, rows):
        c, feats = self.world(n)
        rows = np.array(rows)
        own = np.zeros((len(rows), n), dtype=bool)
        for b, i in enumerate(rows):
            own[b, i] = True
        for f, m in feats.items():
            got = distance_block(c, f, rows)
            raw = pairwise_l1(m[rows], m)
            assert (np.isnan(got) == own).all()
            assert got[~own].tobytes() == raw[~own].tobytes()

    @pytest.mark.parametrize("n, rows", CASES)
    def test_rankmax_block_never_ranks_the_query_itself(self, n, rows):
        c, feats = self.world(n)
        rows = np.array(rows)
        wv = WeightVector.normalized(["fa", "fb"], [0.3, 0.7])
        normalizers = {f: DistanceNormalizer("rankmax") for f in feats}
        full = np.zeros((len(rows), n))
        for f, lam in zip(wv.names, wv.weights):
            full += rankmax_rows(pairwise_l1(feats[f][rows], feats[f]), rows) * lam
        got = distance_block(c, wv, rows, normalizers)
        assert got.tobytes() == full.tobytes()


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


@st.composite
def key_sort_blocks(draw):
    """(B, n) blocks aimed at RankMax's int64-key sort: n of 1, 2, 2^j or
    2^j + 1; values that differ only in their low ceil(log2 n) bits, the
    bits a key gives to the column; -0.0 beside +0.0; negative values and
    +inf. Own slots are none, one per row, or mixed, so the rows of a block
    share a candidate count or not."""
    j = draw(st.integers(2, 5))
    n = draw(st.sampled_from([1, 2, 2**j, 2**j + 1]))
    low = (1 << (n - 1).bit_length()) - 1
    bases = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=3))

    def low_bits(base_and_bits):
        base, bits = base_and_bits
        key = np.array([base]).view(np.int64)
        return float(((key & ~low) | bits).view(np.float64)[0])

    values = st.one_of(
        st.sampled_from(bases),
        st.tuples(st.sampled_from(bases), st.integers(0, low)).map(low_bits),
        st.sampled_from([0.0, -0.0, np.inf]),
        st.floats(-1e6, 1e6),
    )
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=6))
    slots = draw(st.sampled_from(["none", "each", "mixed"] if n > 1 else ["none"]))
    if slots == "none":
        own = [-1] * len(rows)
    else:
        first = 0 if slots == "each" else -1
        own = draw(st.lists(st.integers(first, n - 1), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.float64), np.array(own)


def with_own_nan(d, own):
    d = d.copy()
    rows = np.nonzero(own >= 0)[0]
    d[rows, own[rows]] = np.nan
    return d


class TestRankMaxApply:
    @settings(max_examples=300)
    @given(block=distance_blocks())
    def test_block_matches_per_row_oracle_bitwise(self, block):
        d, own = block
        got = DistanceNormalizer("rankmax").apply(with_own_nan(d, own))
        assert got.tobytes() == rankmax_rows(d, own).tobytes()

    @settings(max_examples=200)
    @given(block=distance_blocks(quantized=st.just(True)))
    def test_invariant_under_strictly_increasing_transforms(self, block):
        d, own = block  # on this grid each transform stays strictly increasing in floats
        norm = DistanceNormalizer("rankmax")
        want = norm.apply(with_own_nan(d, own)).tobytes()
        for transform in (lambda x: x**3 + 7.0, np.sqrt, lambda x: -np.exp(-x)):
            assert norm.apply(with_own_nan(transform(d), own)).tobytes() == want

    @settings(max_examples=400)
    @given(block=key_sort_blocks())
    def test_key_collisions_signs_and_widths_match_per_row_oracle(self, block):
        d, own = block
        got = DistanceNormalizer("rankmax").apply(with_own_nan(d, own))
        assert got.tobytes() == rankmax_rows(d, own).tobytes()

    def test_argsort_only_for_keys_that_do_not_sort_the_values(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 50.0, size=(5, 64))
        own = np.array([0, 9, 63, 5, 2])
        norm = DistanceNormalizer("rankmax")
        assert norm.apply(with_own_nan(d, own)).tobytes() == rankmax_rows(d, own).tobytes()
        assert calls == []
        # two values apart only in the low 6 bits, the smaller in the later column
        key = (d[2, 7:8].view(np.int64) & ~63) | 32
        d[2, 7], d[2, 40] = key.view(np.float64)[0], (key - 1).view(np.float64)[0]
        assert norm.apply(with_own_nan(d, own)).tobytes() == rankmax_rows(d, own).tobytes()
        assert calls == [1]

    def test_row_without_candidates_stays_nan(self):
        got = DistanceNormalizer("rankmax").apply(np.array([[np.nan], [2.0]]))
        assert got.tobytes() == np.array([[np.nan], [0.0]]).tobytes()

    @pytest.mark.parametrize("quantum", [0.25, 1.0, 10.0])
    def test_chunked_tie_heavy_block_matches_oracle(self, quantum):
        # more rows than one chunk holds, so the block is ranked in chunks
        rng = np.random.default_rng(int(quantum * 4))
        n = _CHUNK_BYTES // (8 * 5)
        d = np.round(rng.uniform(0, 30, size=(23, n)) / quantum) * quantum
        d[7] = d[3]
        own = rng.integers(-1, n, size=23)
        own[:4] = -1
        got = DistanceNormalizer("rankmax").apply(with_own_nan(d, own))
        assert got.tobytes() == rankmax_rows(d, own).tobytes()

    def test_all_tied_one_and_no_candidates(self):
        nan = np.nan
        d = np.array(
            [
                [2.0, 2.0, 2.0],  # every candidate ties
                [nan, 4.0, nan],  # one candidate
                [nan, nan, nan],  # none
                [1.0, nan, 0.0],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = DistanceNormalizer("rankmax").apply(d)
        want = np.array([[0.0, 0.0, 0.0], [nan, 0.0, nan], [nan, nan, nan], [0.5, nan, 0.0]])
        assert got.tobytes() == want.tobytes()
        assert got[[0]].tobytes() == rankmax_rows(np.full((1, 3), 2.0), np.array([-1])).tobytes()

    def test_overflowing_distances_tie_with_the_own_slot(self):
        # L1 between components of opposite sign near 1e308 overflows to +inf;
        # those candidates sort together with the own slot yet keep their rank
        rng = np.random.default_rng(11)
        m = rng.choice([-1.5e308, -1.0, 0.0, 2.0, 1.5e308], size=(30, 2))
        with np.errstate(over="ignore"):
            d = pairwise_l1(m, m)
        assert np.isinf(d).any() and not np.isnan(d).any()
        own = np.arange(30)
        own[::4] = -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = DistanceNormalizer("rankmax").apply(with_own_nan(d, own))
        assert got.tobytes() == rankmax_rows(d, own).tobytes()

    def test_strided_block_is_ranked_in_place(self):
        d = np.round(np.random.default_rng(5).uniform(0, 9, size=(6, 40)))
        own = np.array([0, -1, 5, 39, -1, 2])
        want = rankmax_rows(d, own)
        strided = np.asfortranarray(with_own_nan(d, own))
        got = DistanceNormalizer("rankmax").apply(strided)
        assert got is strided
        assert np.ascontiguousarray(strided).tobytes() == want.tobytes()


def traced_peak(fn):
    """(result, peak bytes traced while `fn` ran, above what was held before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


class TestKernelMemory:
    def test_rankmax_block_works_in_small_chunks(self):
        d = np.random.default_rng(0).uniform(size=(64, 8000))
        d[np.arange(64), np.arange(64)] = np.nan
        _, peak = traced_peak(lambda: DistanceNormalizer("rankmax").apply(d))
        assert peak <= 2**20

    def test_l1_holds_little_beyond_its_output(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(64, 8)), rng.uniform(size=(8000, 8))
        out, peak = traced_peak(lambda: pairwise_l1(a, b))
        assert peak <= out.nbytes + 2 * 2**20


def tie_heavy_world(n):
    """n images over two quantized 8-dim features (a quarter of the values
    distinct per dimension) with every third vector a duplicate of an
    earlier one; tag 'w' on half the images, 'v' on a third, 'one' on a
    single image, and some images untagged."""
    rng = np.random.default_rng(n)
    features = {}
    for name in ("visa", "visb"):
        m = rng.integers(0, 4, size=(n, 8)) / 4
        dup = np.arange(2, n, 3)
        m[dup] = m[rng.integers(0, 2, size=len(dup))]
        features[name] = m
    records = [
        (f"x{i:04d}", "u0", [t for t, on in (("w", i % 2), ("v", i % 3 == 0), ("one", i == 1)) if on])
        for i in range(n)
    ]
    return make_collection(records, features)


class TestUfuncBufferSize:
    """The kernels cut numpy's ufunc buffer to one row; no output bit may
    depend on the buffer size, and the caller's size comes back."""

    SIZES = (16, 8192, 2**20)

    @staticmethod
    def outputs(c, n):
        m = c.feature("visa").matrix
        d = pairwise_l1(m, m)
        d[np.arange(n), np.arange(n)] = np.nan
        out = [d.tobytes(), DistanceNormalizer("rankmax").apply(d.copy()).tobytes()]
        for k in sorted({1, 3, max(1, n - 2), n - 1, n}):
            out.append(top_k(d, k, c.id_rank).tobytes())
        wv = WeightVector.normalized(("visa", "visb"), (0.3, 0.7))
        norms = {f: DistanceNormalizer("rankmax") for f in ("visa", "visb")}
        for k in sorted({2, n - 1, n}):
            for metric, normalizers in (("visa", None), (wv, norms)):
                tables = vote_tables(c, ["w", "v", "one"], metric, normalizers, k)
                out += [tables[t].scores.tobytes() for t in ("w", "v", "one")]
        out.append(kde_table(c, "w", "visb", sample_cap=max(1, n // 4)).scores.tobytes())
        return out

    @pytest.mark.parametrize("n", [5, 300, 1000])
    def test_outputs_bit_identical_at_every_buffer_size(self, monkeypatch, n):
        c = tie_heavy_world(n)
        seen = []
        for cut in (True, False):  # False: the kernels run at the caller's size
            if not cut:
                monkeypatch.setattr(neighbors, "_row_buffer", lambda n: contextlib.nullcontext())
            for size in self.SIZES:
                old = np.setbufsize(size)
                try:
                    seen.append(self.outputs(c, n))
                    assert np.getbufsize() == size
                finally:
                    np.setbufsize(old)
        assert all(out == seen[0] for out in seen[1:])

    @pytest.mark.parametrize("size", SIZES)
    def test_caller_size_restored_after_a_raising_call(self, size):
        old = np.setbufsize(size)
        try:
            with pytest.raises(ValueError, match="dimension mismatch"):
                pairwise_l1(np.zeros((2, 3)), np.zeros((4, 2)))
            assert np.getbufsize() == size
            with pytest.raises(TypeError):  # raised by the subtraction inside the cut
                pairwise_l1(np.array([["a"]]), np.array([["b"]]))
            assert np.getbufsize() == size
            with pytest.raises(RuntimeError, match="inside"):
                with neighbors._row_buffer(1000):
                    assert np.getbufsize() == min(size, 1008)
                    raise RuntimeError("inside")
            assert np.getbufsize() == size
        finally:
            np.setbufsize(old)
