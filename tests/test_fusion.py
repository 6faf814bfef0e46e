import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tagfusion.estimators import ScoreTable
from tagfusion.fusion import (
    ScoreBounds,
    _fuse_certified,
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
from oracles import (
    average_fuse,
    dict_late_fuse,
    dict_minmax,
    dict_observed_bounds,
    dict_rankmax,
    dict_ranking,
    fraction_late_fuse,
    scores_of,
)
from oracles import dict_table


def table(scores, estimator="e", tag="w"):
    return dict_table(estimator, tag, dict(scores))


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
        assert scores_of(out)["a"] == pytest.approx(0.4, abs=1e-9)

    def test_min_maps_to_zero_and_max_to_one(self):
        st = table({"a": -0.1, "b": 0.9})
        out = minmax_normalize(st, ScoreBounds(-0.1, 0.9))
        assert scores_of(out)["a"] == 0.0
        assert scores_of(out)["b"] == 1.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ScoreBounds(0.5, 0.5)

    def test_out_of_range_scores_clamped(self):
        st = table({"a": -5.0, "b": 5.0})
        out = minmax_normalize(st, ScoreBounds(0.0, 1.0))
        assert scores_of(out) == {"a": 0.0, "b": 1.0}

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
        assert scores_of(out)["a"] == pytest.approx(0.75, abs=1e-9)
        assert scores_of(out)["d"] == 0.0

    def test_values_follow_one_minus_rank_over_n(self):
        st = table({f"c{i}": float(-i) for i in range(7)})
        out = rankmax_normalize(st)
        for rank, x in enumerate(st.ranking(), start=1):
            assert scores_of(out)[x] == pytest.approx(1 - rank / 7, abs=1e-9)

    def test_single_candidate_gets_zero(self):
        st = table({"only": 123.0})
        assert scores_of(rankmax_normalize(st)) == {"only": 0.0}

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(1)
        st = random_tables(rng, 1, 15)[0]
        transformed = table({x: float(np.exp(3 * v) + 7) for x, v in scores_of(st).items()})
        assert scores_of(rankmax_normalize(st)) == scores_of(rankmax_normalize(transformed))

    def test_order_preserved_with_tie_rule(self):
        st = table({"b": 0.5, "a": 0.5, "c": 0.1})
        out = rankmax_normalize(st)
        assert out.ranking() == ["a", "b", "c"]
        assert st.ranking() == ["a", "b", "c"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            rankmax_normalize(table({}))

    @settings(max_examples=200)
    @given(values=st.lists(st.integers(-20, 20).map(lambda v: v / 4), min_size=1, max_size=15))
    def test_invariant_under_strictly_increasing_score_transforms(self, values):
        base = table({f"c{i:02d}": v for i, v in enumerate(values)})
        want = scores_of(rankmax_normalize(base))
        for transform in (lambda x: x**3 + x, math.exp, lambda x: math.atan(x) - 9.0):
            moved = table({x: transform(v) for x, v in scores_of(base).items()})
            assert scores_of(rankmax_normalize(moved)) == want


class TestLateFuse:
    @settings(max_examples=200)
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
        got = scores_of(late_fuse([tables[i] for i in perm], permuted))
        want = scores_of(late_fuse(tables, wv))
        assert {x: s.hex() for x, s in got.items()} == {x: s.hex() for x, s in want.items()}

    def test_hand_value(self):
        t1 = table({"a": 0.2}, estimator="e0")
        t2 = table({"a": 0.4}, estimator="e1")
        out = late_fuse([t1, t2], WeightVector.uniform(["e0", "e1"]))
        assert scores_of(out)["a"] == pytest.approx(0.3, abs=1e-9)

    def test_one_hot_reproduces_input_bitwise(self):
        rng = np.random.default_rng(2)
        tables = random_tables(rng, 3, 12)
        for hot in range(3):
            wv = WeightVector.one_hot([t.estimator for t in tables], f"e{hot}")
            out = late_fuse(tables, wv)
            assert scores_of(out) == scores_of(tables[hot])

    def test_identical_tables_fixed_point(self):
        rng = np.random.default_rng(3)
        base = random_tables(rng, 1, 9)[0]
        tables = [
            table(scores_of(base), estimator=f"e{j}") for j in range(3)
        ]
        wv = WeightVector.normalized(["e0", "e1", "e2"], [0.2, 0.5, 0.9])
        out = late_fuse(tables, wv)
        assert scores_of(out) == scores_of(base)

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
        for x in out.ids:
            values = [scores_of(t)[x] for t in tables]
            assert min(values) <= scores_of(out)[x] <= max(values)

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
        assert scores_of(average_fuse(tables)) == scores_of(late_fuse(tables, uniform))

    def test_average_of_midpoint(self):
        t1 = table({"a": 0.0}, estimator="e0")
        t2 = table({"a": 1.0}, estimator="e1")
        assert scores_of(average_fuse([t1, t2]))["a"] == 0.5

    def test_average_single_table_is_identity(self):
        t1 = table({"a": 0.37, "b": -0.4}, estimator="e0")
        assert scores_of(average_fuse([t1])) == scores_of(t1)


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


def hexes(scores):
    return {x: float(v).hex() for x, v in scores.items()}


# ties, both zeros, and values with no short binary expansion
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1, 1 / 3, -2 / 3]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
WEIGHTS = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 0.7, 1.0]), st.floats(0.0, 5.0))


class TestArrayTablesMatchDictOracles:
    """The array operations equal the dict-keyed code they replaced, bit for bit."""

    @settings(max_examples=200)
    @given(
        columns=st.integers(1, 8).flatmap(
            lambda n: st.lists(st.lists(SCORES, min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        weights=st.lists(WEIGHTS, min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
        lower=st.sampled_from([0.0, -0.0, -0.25, -1 / 3, -3.0]),
        span=st.sampled_from([1.0, 0.1, 2 / 3, 7.0]),
    )
    def test_bit_identical(self, columns, weights, lower, span):
        ids = [f"c{i:02d}" for i in range(len(columns[0]))]
        dicts = [dict(zip(ids, col)) for col in columns]
        tables = [dict_table(f"e{j}", "w", d) for j, d in enumerate(dicts)]
        bounds = [unit_bounds(), ScoreBounds(lower, lower + span)]
        for d, t in zip(dicts, tables):
            assert t.ranking() == dict_ranking(d)
            assert hexes(scores_of(rankmax_normalize(t))) == hexes(dict_rankmax(d))
            if min(d.values()) < max(d.values()):
                got, want = observed_bounds(t), dict_observed_bounds(d)
                assert (got.lower.hex(), got.upper.hex()) == (want.lower.hex(), want.upper.hex())
                bounds.append(got)
            for b in bounds:
                assert hexes(scores_of(minmax_normalize(t, b))) == hexes(dict_minmax(d, b))
        w = weights[: len(tables)]
        if sum(w) > 0:
            wv = WeightVector.normalized([t.estimator for t in tables], w)
            assert hexes(scores_of(late_fuse(tables, wv))) == hexes(dict_late_fuse(dicts, wv.weights))

    def test_minmax_clamps_negative_zero_as_python_does(self):
        # min(1.0, max(0.0, -0.0)) is 0.0, while np.clip keeps the sign
        assert math.copysign(1.0, min(1.0, max(0.0, -0.0))) == 1.0
        assert np.signbit(np.clip(-0.0, 0.0, 1.0))
        out = minmax_normalize(table({"a": -0.0, "b": 0.5}), unit_bounds())
        assert hexes(scores_of(out)) == {"a": "0x0.0p+0", "b": "0x1.0000000000000p-1"}

    def test_bounds_whose_span_overflows_are_rejected(self):
        # (g - lower) / span would be inf / inf, and the clamp maps nan to 0.0
        for lower, upper in [(-1.5e308, 1.5e308), (0.0, math.inf), (-math.inf, 1.0)]:
            with pytest.raises(ValueError, match="span more than a float"):
                ScoreBounds(lower, upper)
        assert ScoreBounds(-8e307, 8e307).upper == 8e307


class TestScoreTable:
    def test_ids_must_increase_strictly(self):
        with pytest.raises(ValueError, match="must increase strictly"):
            ScoreTable("e", "w", ("b", "a"), [0.1, 0.2])
        with pytest.raises(ValueError, match="must increase strictly"):
            ScoreTable("e", "w", ("a", "a"), [0.1, 0.2])

    def test_scores_align_with_ids(self):
        with pytest.raises(ValueError, match="2 ids"):
            ScoreTable("e", "w", ("a", "b"), [0.1])

    def test_non_finite_score_names_tag_and_image(self):
        with pytest.raises(ValueError, match=r"non-finite score for \('w', 'b'\) in 'e'"):
            ScoreTable("e", "w", ("a", "b"), [0.1, math.nan])

    def test_ranking_breaks_ties_by_ascending_id(self):
        t = ScoreTable("e", "w", ("a", "b", "c", "d"), [0.0, 1.0, -0.0, 1.0])
        assert t.ranking() == ["b", "d", "a", "c"]
        assert t.scores.dtype == np.float64


class TestWeightFiles:
    def test_global_round_trip(self, tmp_path):
        wv = WeightVector.normalized(["tagrel:fa", "tagrel:fb"], [0.25, 0.75])
        path = tmp_path / "w.tsv"
        write_weights(path, wv)
        assert read_weights(path) == wv
        assert path.read_text().startswith("# global\n")

    @pytest.mark.parametrize("name", ["#x", "# global", "a\tb", "a\rb", "a\nb"])
    def test_name_that_would_not_read_back_is_refused(self, tmp_path, name):
        wv = WeightVector.normalized(["ok", name], [0.5, 0.5])
        message = f"^cannot write weight {re.escape(repr(name))}: it starts with '#' or holds a tab"
        with pytest.raises(ValueError, match=message):
            write_weights(tmp_path / "out" / "w.tsv", wv)
        assert list(tmp_path.iterdir()) == []

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

    def test_weights_whose_sum_overflows_normalize(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# global\na\t1e308\nb\t1e308\n")
        assert read_weights(path).weights == (0.5, 0.5)
        path = tmp_path / "c.tsv"
        path.write_text("sky\ta\t1e308\nsky\tb\t1e308\n")
        per, _ = read_concept_weights(path)
        assert per["sky"].weights == (0.5, 0.5)

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


# exact midpoints once halved, both zeros, the edges of the certified range
# (2^-500, 2^500) and beyond it, subnormals and the largest floats
FUSE_SCORES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 0.5, -0.5, 0.1, 1 / 3, -2 / 3, 0.04, 0.12, 0.16, 2.0**-500, 2.0**-501,
        2.0**500, -(2.0**501), 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    ]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
# thirds and a tiny weight keep sum w != 1; zeros drop a table
FUSE_WEIGHTS = st.one_of(st.sampled_from([0.0, 1 / 3, 2 / 3, 1e-300, 0.5, 1.0]), st.floats(0.0, 5.0))


class TestLateFuseMatchesFractionOracle:
    """The certified double-double kernel equals summing in rationals, bit for bit."""

    @settings(max_examples=400)
    @given(
        columns=st.integers(1, 8).flatmap(
            lambda n: st.lists(st.lists(FUSE_SCORES, min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        weights=st.lists(FUSE_WEIGHTS, min_size=4, max_size=4),
    )
    def test_bit_identical(self, columns, weights):
        w = weights[: len(columns)]
        assume(sum(w) > 0)
        names = [f"e{j}" for j in range(len(columns))]
        try:
            wv = WeightVector(tuple(names), tuple(w))  # as given, sum w != 1 exactly
        except ValueError:
            wv = WeightVector.normalized(names, w)
        ids = [f"c{i:02d}" for i in range(len(columns[0]))]
        tables = [dict_table(e, "w", dict(zip(ids, col))) for e, col in zip(names, columns)]
        got = late_fuse(tables, wv).scores.tolist()
        assert [x.hex() for x in got] == [x.hex() for x in fraction_late_fuse(tables, wv)]

    @settings(max_examples=200)
    @given(
        x=st.floats(2.0**-400, 2.0**400),
        sign=st.sampled_from([1.0, -1.0]),
        apart=st.integers(1, 3),
    )
    def test_exact_midpoints_are_decided_without_rationals(self, x, sign, apart):
        # (x + y) / 2 of floats `apart` ulps apart: an exact midpoint when odd
        y = x
        for _ in range(apart):
            y = math.nextafter(y, math.inf)
        g = np.array([[sign * x], [sign * y]])
        fused, certified = _fuse_certified([Fraction(1, 2)] * 2, g)
        assert certified.all()
        assert fused[0].hex() == float((Fraction(sign * x) + Fraction(sign * y)) / 2).hex()

    def test_rankmax_and_minmax_averages_need_no_rationals(self):
        rng = np.random.default_rng(9)
        for m in (2, 4):
            tables = random_tables(rng, m, 300, quantize=7)
            lams = [Fraction(1, m)] * m
            for tabs in ([rankmax_normalize(t) for t in tables], tables):
                _, certified = _fuse_certified(lams, np.array([t.scores for t in tabs]))
                assert certified.all()

    def test_uncertified_candidates_fall_back_to_rationals(self):
        # lambda = 1/3, 2/3 and (0.04 + 2 * 0.16) / 3 lands on an exact midpoint;
        # 1e308 is past the certified range
        t1 = table({"a": 0.04, "b": 1e308, "c": 0.5}, estimator="e0")
        t2 = table({"a": 0.16, "b": 0.0, "c": 0.25}, estimator="e1")
        wv = WeightVector(("e0", "e1"), (1 / 3, 2 / 3))
        lams = [Fraction(w) / sum(map(Fraction, wv.weights)) for w in wv.weights]
        _, certified = _fuse_certified(lams, np.array([t1.scores, t2.scores]))
        assert certified.tolist() == [False, False, True]
        got = late_fuse([t1, t2], wv).scores.tolist()
        assert [x.hex() for x in got] == [x.hex() for x in fraction_late_fuse([t1, t2], wv)]

    def test_residue_below_the_compensation_still_decides_a_near_midpoint(self):
        # 1 + 2^-53 + 2^-200: the compensation holds 2^-53 but not 2^-200,
        # and without that residue the sum would round to even, down to 1.0
        tables = [table({"a": g}, estimator=f"e{j}") for j, g in enumerate([2.0, 2.0**-51, 2.0**-198])]
        wv = WeightVector(("e0", "e1", "e2"), (0.5, 0.25, 0.25))
        assert late_fuse(tables, wv).scores.tolist() == [1.0 + 2.0**-52]
        assert fraction_late_fuse(tables, wv) == [1.0 + 2.0**-52]
