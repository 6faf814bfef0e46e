import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfusion.estimators import ScoreTable
from tagfusion.fusion import (
    ScoreBounds,
    average_fuse,
    borda_rank,
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
from tagfusion.neighbors import WeightVector

from conftest import make_collection


def table(scores, estimator="e", tag="w"):
    return ScoreTable(estimator=estimator, tag=tag, scores=dict(scores))


def random_tables(rng, m, n, quantize=None):
    ids = [f"c{i:02d}" for i in range(n)]
    tables = []
    for j in range(m):
        values = rng.random(n)
        if quantize:
            values = np.round(values * quantize) / quantize
        tables.append(table({i: float(v) for i, v in zip(ids, values)}, estimator=f"e{j}"))
    return tables


class TestMinMax:
    def test_hand_value(self):
        st = table({"a": 0.3})
        out = minmax_normalize(st, ScoreBounds(-0.1, 0.9))
        assert out.scores["a"] == pytest.approx(0.4, abs=1e-9)

    def test_min_maps_to_zero_and_max_to_one(self):
        st = table({"a": -0.1, "b": 0.9})
        out = minmax_normalize(st, ScoreBounds(-0.1, 0.9))
        assert out.scores["a"] == 0.0
        assert out.scores["b"] == 1.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ScoreBounds(0.5, 0.5)

    def test_out_of_range_scores_clamped(self):
        st = table({"a": -5.0, "b": 5.0})
        out = minmax_normalize(st, ScoreBounds(0.0, 1.0))
        assert out.scores == {"a": 0.0, "b": 1.0}

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        st = random_tables(rng, 1, 20)[0]
        out = minmax_normalize(st, ScoreBounds(0.0, 1.0))
        assert out.ranking() == st.ranking()

    def test_bounds_recorded_in_meta(self):
        st = table({"a": 0.4, "b": 0.6})
        out = minmax_normalize(st, observed_bounds(st))
        assert out.meta["bounds_source"] == "observed"
        assert out.meta["minmax_bounds"] == (0.4, 0.6)
        out2 = minmax_normalize(st, unit_bounds())
        assert out2.meta["bounds_source"] == "analytic"

    def test_neighbor_vote_bounds_are_prior_based(self):
        c = make_collection(
            [("x1", "u", ["w"]), ("x2", "u", []), ("x3", "u", []), ("x4", "u", [])]
        )
        b = neighbor_vote_bounds(c, "w")
        assert b.lower == pytest.approx(-0.25)
        assert b.upper == pytest.approx(0.75)


class TestRankMax:
    def test_top_and_bottom_of_four(self):
        st = table({"a": 0.9, "b": 0.5, "c": 0.2, "d": 0.1})
        out = rankmax_normalize(st)
        assert out.scores["a"] == pytest.approx(0.75, abs=1e-9)
        assert out.scores["d"] == 0.0

    def test_values_follow_one_minus_rank_over_n(self):
        st = table({f"c{i}": float(-i) for i in range(7)})
        out = rankmax_normalize(st)
        for rank, x in enumerate(st.ranking(), start=1):
            assert out.scores[x] == pytest.approx(1 - rank / 7, abs=1e-9)

    def test_single_candidate_gets_zero(self):
        st = table({"only": 123.0})
        assert rankmax_normalize(st).scores == {"only": 0.0}

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(1)
        st = random_tables(rng, 1, 15)[0]
        transformed = table({x: float(np.exp(3 * v) + 7) for x, v in st.scores.items()})
        assert rankmax_normalize(st).scores == rankmax_normalize(transformed).scores

    def test_order_preserved_with_tie_rule(self):
        st = table({"b": 0.5, "a": 0.5, "c": 0.1})
        out = rankmax_normalize(st)
        assert out.ranking() == ["a", "b", "c"]
        assert st.ranking() == ["a", "b", "c"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            rankmax_normalize(table({}))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(values=st.lists(st.integers(-20, 20).map(lambda v: v / 4), min_size=1, max_size=15))
    def test_invariant_under_strictly_increasing_score_transforms(self, values):
        base = table({f"c{i:02d}": v for i, v in enumerate(values)})
        want = rankmax_normalize(base).scores
        for transform in (lambda x: x**3 + x, math.exp, lambda x: math.atan(x) - 9.0):
            moved = table({x: transform(v) for x, v in base.scores.items()})
            assert rankmax_normalize(moved).scores == want


class TestLateFuse:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        quantize=st.sampled_from([None, 4]),
        order=st.randoms(use_true_random=False),
    )
    def test_permuting_tables_with_their_weights_is_bit_identical(
        self, m, n, seed, quantize, order
    ):
        rng = np.random.default_rng(seed)
        tables = random_tables(rng, m, n, quantize)
        wv = WeightVector.normalized([t.estimator for t in tables], rng.random(m) + 0.01)
        perm = list(range(m))
        order.shuffle(perm)
        permuted = WeightVector(
            tuple(wv.names[i] for i in perm), tuple(wv.weights[i] for i in perm)
        )
        got = late_fuse([tables[i] for i in perm], permuted).scores
        want = late_fuse(tables, wv).scores
        assert {x: s.hex() for x, s in got.items()} == {x: s.hex() for x, s in want.items()}

    def test_hand_value(self):
        t1 = table({"a": 0.2}, estimator="e0")
        t2 = table({"a": 0.4}, estimator="e1")
        out = late_fuse([t1, t2], WeightVector.uniform(["e0", "e1"]))
        assert out.scores["a"] == pytest.approx(0.3, abs=1e-9)

    def test_one_hot_reproduces_input_bitwise(self):
        rng = np.random.default_rng(2)
        tables = random_tables(rng, 3, 12)
        for hot in range(3):
            wv = WeightVector.one_hot([t.estimator for t in tables], f"e{hot}")
            out = late_fuse(tables, wv)
            assert out.scores == tables[hot].scores

    def test_identical_tables_fixed_point(self):
        rng = np.random.default_rng(3)
        base = random_tables(rng, 1, 9)[0]
        tables = [
            table(base.scores, estimator=f"e{j}") for j in range(3)
        ]
        wv = WeightVector.normalized(["e0", "e1", "e2"], [0.2, 0.5, 0.9])
        out = late_fuse(tables, wv)
        assert out.scores == base.scores

    def test_candidate_set_mismatch(self):
        t1 = table({"a": 0.2, "b": 0.1}, estimator="e0")
        t2 = table({"a": 0.4}, estimator="e1")
        with pytest.raises(ValueError, match="candidate-set"):
            late_fuse([t1, t2], WeightVector.uniform(["e0", "e1"]))

    def test_length_mismatch(self):
        t1 = table({"a": 0.2}, estimator="e0")
        with pytest.raises(ValueError):
            late_fuse([t1], WeightVector.uniform(["e0", "e1"]))

    def test_convex_hull_per_image(self):
        rng = np.random.default_rng(4)
        tables = random_tables(rng, 4, 10)
        wv = WeightVector.normalized([t.estimator for t in tables], rng.random(4) + 0.05)
        out = late_fuse(tables, wv)
        for x in out.scores:
            values = [t.scores[x] for t in tables]
            assert min(values) <= out.scores[x] <= max(values)

    def test_ranking_invariant_to_weight_scaling(self):
        rng = np.random.default_rng(5)
        tables = random_tables(rng, 3, 25)
        names = [t.estimator for t in tables]
        raw = [0.2, 0.3, 0.5]
        for c in (2.0, 7.3, 1e-3):
            wv1 = WeightVector.normalized(names, raw)
            wv2 = WeightVector.normalized(names, [c * v for v in raw])
            assert late_fuse(tables, wv1).ranking() == late_fuse(tables, wv2).ranking()

    def test_average_is_uniform_late_fuse(self):
        rng = np.random.default_rng(6)
        tables = random_tables(rng, 3, 8)
        uniform = WeightVector.uniform([t.estimator for t in tables])
        assert average_fuse(tables).scores == late_fuse(tables, uniform).scores

    def test_average_of_midpoint(self):
        t1 = table({"a": 0.0}, estimator="e0")
        t2 = table({"a": 1.0}, estimator="e1")
        assert average_fuse([t1, t2]).scores["a"] == 0.5

    def test_average_single_table_is_identity(self):
        t1 = table({"a": 0.37, "b": -0.4}, estimator="e0")
        assert average_fuse([t1]).scores == t1.scores


class TestBorda:
    def test_opposite_orderings_tie_by_id(self):
        t1 = table({"a": 1.0, "b": 0.0}, estimator="e0")
        t2 = table({"a": 0.0, "b": 1.0}, estimator="e1")
        assert borda_rank([t1, t2]) == ["a", "b"]

    def test_unanimous_order_kept(self):
        t1 = table({"a": 0.9, "b": 0.5, "c": 0.1}, estimator="e0")
        t2 = table({"a": 0.8, "b": 0.6, "c": 0.2}, estimator="e1")
        assert borda_rank([t1, t2]) == ["a", "b", "c"]

    def test_rankmax_average_matches_borda_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(2, 51))
            quantize = int(rng.integers(2, 8)) if rng.random() < 0.5 else None
            tables = random_tables(rng, m, n, quantize=quantize)
            fused = average_fuse([rankmax_normalize(t) for t in tables])
            assert fused.ranking() == borda_rank(tables)

    def test_five_item_hand_case(self):
        rng = np.random.default_rng(8)
        tables = random_tables(rng, 3, 5)
        fused = average_fuse([rankmax_normalize(t) for t in tables])
        assert fused.ranking() == borda_rank(tables)


class TestWeightFiles:
    def test_global_round_trip(self, tmp_path):
        wv = WeightVector.normalized(["tagrel:fa", "tagrel:fb"], [0.25, 0.75])
        path = tmp_path / "w.tsv"
        write_weights(path, wv)
        assert read_weights(path) == wv
        assert path.read_text().startswith("# global\n")

    def test_read_normalizes_to_simplex(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# global\na\t2.0\nb\t6.0\n")
        wv = read_weights(path)
        assert wv.weights == (0.25, 0.75)

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# global\na\t-1.0\nb\t2.0\n")
        with pytest.raises(ValueError):
            read_weights(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_non_finite_or_negative_weight_rejected_with_line(self, tmp_path, bad):
        path = tmp_path / "w.tsv"
        path.write_text(f"# global\na\t0.5\nb\t{bad}\n")
        with pytest.raises(ValueError, match=r"w\.tsv:3: weight must be finite and nonnegative"):
            read_weights(path)
        path = tmp_path / "c.tsv"
        path.write_text(f"sky\ta\t0.5\nsky\tb\t{bad}\n")
        with pytest.raises(ValueError, match=r"c\.tsv:2: weight must be finite and nonnegative"):
            read_concept_weights(path)

    def test_all_zero_global_weights_name_the_file(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# global\na\t0\nb\t0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: weights sum to zero")):
            read_weights(path)

    def test_all_zero_concept_weights_name_line_and_tag(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# fallback: sea\nsky\ta\t0.5\nsky\tb\t0.5\nsea\ta\t0\nsea\tb\t0\n")
        message = f"{path}:4: tag 'sea': weights sum to zero"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_concept_weights(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# global\na\n")
        with pytest.raises(ValueError, match=":2"):
            read_weights(path)

    def test_per_concept_round_trip_with_fallbacks(self, tmp_path):
        per = {
            "sky": WeightVector.normalized(["e0", "e1"], [0.9, 0.1]),
            "sea": WeightVector.uniform(["e0", "e1"]),
        }
        path = tmp_path / "pc.tsv"
        write_concept_weights(path, per, fallbacks=["sea"])
        got, fallbacks = read_concept_weights(path)
        assert got == per
        assert fallbacks == frozenset({"sea"})
