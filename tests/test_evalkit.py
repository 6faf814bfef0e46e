import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagfusion import evalkit
from tagfusion.evalkit import (
    EvalFormatError,
    Qrels,
    average_precision,
    evaluate_run,
    mean_over_concepts,
    ndcg_at,
    randomization_test,
    rank_metric,
    read_qrels,
    read_run,
    render_report,
    run_from_tables,
    write_qrels,
    write_run,
)

from oracles import dict_table


def brute_average_precision(ranking, relevant):
    # independent oracle: textbook double loop
    r = [1 if x in relevant else 0 for x in ranking]
    total_rel = sum(r)
    if total_rel == 0:
        return 0.0
    acc = 0.0
    for p in range(len(r)):
        if r[p]:
            acc += sum(r[: p + 1]) / (p + 1)
    return acc / total_rel


def brute_ndcg(ranking, relevant, cutoff):
    r = [1 if x in relevant else 0 for x in ranking]
    dcg = sum(r[i] / math.log2(i + 2) for i in range(min(cutoff, len(r))))
    ideal = sorted(r, reverse=True)
    idcg = sum(ideal[i] / math.log2(i + 2) for i in range(min(cutoff, len(r))))
    return dcg / idcg if idcg > 0 else 0.0


class TestAveragePrecision:
    def test_hand_case(self):
        # [R, N, R, N] -> (1/2)(1 + 2/3)
        got = average_precision(["a", "b", "c", "d"], {"a", "c"})
        assert got == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-9)

    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "c"], {"a", "b"}) == 1.0

    def test_no_relevant(self):
        assert average_precision(["a", "b"], set()) == 0.0

    def test_relevant_outside_candidates_ignored(self):
        # R counts only relevant items inside the ranking
        assert average_precision(["a", "b"], {"a", "zz"}) == 1.0


class TestNdcg:
    def test_hand_case(self):
        got = ndcg_at(["a", "b", "c"], {"a", "c"}, cutoff=3)
        expected = (1.0 + 0.5) / (1.0 + 1.0 / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_perfect(self):
        assert ndcg_at(["a", "b", "c"], {"a", "b"}, cutoff=3) == pytest.approx(1.0)

    def test_no_relevant(self):
        assert ndcg_at(["a", "b"], set(), cutoff=5) == 0.0

    def test_cutoff_truncates(self):
        full = ndcg_at(["a", "b", "c"], {"c"}, cutoff=3)
        cut = ndcg_at(["a", "b", "c"], {"c"}, cutoff=2)
        assert full > 0 and cut == 0.0

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            ndcg_at(["a"], {"a"}, cutoff=0)


@settings(max_examples=300)
@given(flags=st.lists(st.booleans(), max_size=300), cutoff=st.integers(1, 320))
@example(flags=[], cutoff=1)
@example(flags=[False] * 7, cutoff=3)  # no relevant item
@example(flags=[True] * 7, cutoff=3)  # all relevant
@example(flags=[True], cutoff=1)  # n = 1
@example(flags=[False], cutoff=1)
@example(flags=[False, True, False, True], cutoff=1)  # cutoff 1
@example(flags=[False, True, False, True], cutoff=9)  # cutoff > n
def test_rank_metric_matches_brute_oracles(flags, cutoff):
    ranking = [f"x{i}" for i in range(len(flags))]
    relevant = {x for x, f in zip(ranking, flags) if f}
    arr = np.array(flags, dtype=bool)
    assert rank_metric(arr, "ap") == pytest.approx(
        brute_average_precision(ranking, relevant), abs=1e-12
    )
    assert rank_metric(arr, "ndcg", cutoff) == pytest.approx(
        brute_ndcg(ranking, relevant, cutoff), abs=1e-12
    )


def test_cached_ndcg_discounts_match_the_uncached_formula_bitwise(monkeypatch):
    # start from an empty table so every growth step is exercised
    monkeypatch.setattr(evalkit, "_discount_table", np.empty(0))
    rng = np.random.default_rng(13)
    for length in range(1, 1001):
        flags = rng.random(length) < 0.3
        flags[rng.integers(length)] = True
        n_rel = int(flags.sum())
        for cutoff in (1, 4, 100):
            top = flags[:cutoff]
            dcg = float((top * (1.0 / np.log2(np.arange(2, len(top) + 2)))).sum())
            idcg = float((1.0 / np.log2(np.arange(2, min(n_rel, cutoff) + 2))).sum())
            got = rank_metric(flags, "ndcg", cutoff)
            assert got.hex() == (dcg / idcg).hex(), (length, cutoff)


@settings(max_examples=300)
@given(
    flags=st.lists(st.booleans(), max_size=300),
    rows=st.integers(0, 6),
    cutoff=st.integers(1, 320),
    seed=st.integers(0, 2**32 - 1),
)
@example(flags=[True] * 9, rows=3, cutoff=4, seed=0)  # all relevant
@example(flags=[False] * 9, rows=2, cutoff=4, seed=0)  # none relevant
def test_rank_metric_rows_equal_one_dimensional_calls_bitwise(flags, rows, cutoff, seed):
    # rows are permutations of one ranking, as the ascent's batch makes them
    rng = np.random.default_rng(seed)
    base = np.array(flags, dtype=bool)
    block = np.array([rng.permutation(base) for _ in range(rows)], dtype=bool).reshape(rows, len(base))
    for metric in ("ap", "ndcg"):
        got = rank_metric(block, metric, cutoff)
        assert got.shape == (rows,)
        assert [v.hex() for v in got.tolist()] == [
            rank_metric(row, metric, cutoff).hex() for row in block
        ]


def test_rank_metric_rows_must_set_equal_counts():
    with pytest.raises(ValueError, match="same number of flags"):
        rank_metric(np.array([[True, False], [True, True]]), "ap")


def test_rank_metric_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        rank_metric(np.array([False, False]), "map")


class TestMean:
    def test_midpoint(self):
        assert mean_over_concepts({"a": 0.2, "b": 0.8}) == pytest.approx(0.5)

    def test_single(self):
        assert mean_over_concepts([0.7]) == 0.7

    def test_reorder_invariant(self):
        assert mean_over_concepts([0.1, 0.5, 0.9]) == mean_over_concepts([0.9, 0.1, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_over_concepts([])


class TestMetricsSeeOnlyOrdering:
    def test_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            scores = {f"c{i}": float(v) for i, v in enumerate(rng.random(n))}
            relevant = {f"c{i}" for i in range(n) if rng.random() < 0.4}
            t1 = dict_table("e", "w", scores)
            t2 = dict_table("e", "w", {x: math.tanh(2 * v) + 3 for x, v in scores.items()})
            assert average_precision(t1.ranking(), relevant) == average_precision(
                t2.ranking(), relevant
            )
            assert ndcg_at(t1.ranking(), relevant) == ndcg_at(t2.ranking(), relevant)

    def test_promoting_relevant_item_never_hurts(self):
        for n in range(2, 7):
            for rel_mask in itertools.product([0, 1], repeat=n):
                ids = [f"c{i}" for i in range(n)]
                relevant = {ids[i] for i in range(n) if rel_mask[i]}
                for pos in range(1, n):
                    if ids[pos] in relevant and ids[pos - 1] not in relevant:
                        promoted = ids.copy()
                        promoted[pos - 1], promoted[pos] = promoted[pos], promoted[pos - 1]
                        assert average_precision(promoted, relevant) >= average_precision(
                            ids, relevant
                        )
                        assert ndcg_at(promoted, relevant) >= ndcg_at(ids, relevant)

    def test_exhaustive_agreement_with_brute_force(self):
        for n in range(1, 7):
            ids = [f"c{i}" for i in range(n)]
            for rel_mask in itertools.product([0, 1], repeat=n):
                relevant = {ids[i] for i in range(n) if rel_mask[i]}
                for perm in itertools.permutations(ids):
                    assert average_precision(perm, relevant) == pytest.approx(
                        brute_average_precision(perm, relevant), abs=1e-12
                    )
                    assert ndcg_at(perm, relevant, cutoff=4) == pytest.approx(
                        brute_ndcg(perm, relevant, cutoff=4), abs=1e-12
                    )


def full_exact_p(a, b):
    """Exact sign-flip p-value over all 2^n sign vectors, row-wise np.sum."""
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    n = len(diffs)
    codes = np.arange(1 << n, dtype=np.uint64)
    bits = 1 << np.arange(n, dtype=np.uint64)
    count = 0
    with np.errstate(over="ignore"):  # huge diffs may sum to inf, as in randomization_test
        observed = abs(float(np.sum(diffs)))
        for start in range(0, len(codes), 1 << 16):
            block = codes[start : start + (1 << 16)]
            signs = np.where((block[:, None] & bits[None, :]) != 0, -1.0, 1.0)
            count += int((np.abs(np.sum(signs * diffs, axis=1)) >= observed).sum())
    return count / (1 << n)


class TestRandomizationTest:
    def test_identical_scores_give_p_one(self):
        a = [0.3, 0.5, 0.9, 0.2]
        assert randomization_test(a, list(a)) == 1.0

    def test_uniform_shift_exact_p(self):
        # d_i = 0.1 for 12 concepts: only the two all-same-sign flips reach |mean|
        b = [0.5] * 12
        a = [0.6] * 12
        assert randomization_test(a, b) == pytest.approx(2 / 4096, abs=1e-15)

    def test_monte_carlo_tracks_exact(self):
        rng = np.random.default_rng(1)
        a = list(rng.random(12))
        b = list(rng.random(12))
        exact = randomization_test(a, b, method="exact")
        mc = randomization_test(a, b, n_perm=100_000, seed=3, method="montecarlo")
        assert abs(mc - exact) <= 0.005

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = list(rng.random(10))
        b = list(rng.random(10))
        assert randomization_test(a, b) == randomization_test(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            randomization_test([0.1, 0.2], [0.1])

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            randomization_test([0.1], [0.2])

    @pytest.mark.parametrize(
        "n_perm, expected",
        [(16384, 0.4300274641440342), (16385, 0.4300622482607104)],
    )
    def test_monte_carlo_p_values_pinned(self, n_perm, expected):
        # one full 2^14-row block of flips, then that block plus a 1-row one;
        # the pinned values fix the sequence of rng calls
        rng = np.random.default_rng(7)
        a = rng.random(24).round(3).tolist()
        b = rng.random(24).round(3).tolist()
        p = randomization_test(a, b, n_perm=n_perm, seed=11, method="montecarlo")
        assert p == expected

    def test_exact_p_values_match_the_full_enumeration(self):
        # the test enumerates half the sign vectors; the oracle all 2^n
        rng = np.random.default_rng(29)
        cases = []
        for i in range(400):
            n = int(rng.integers(2, 15))
            kind = i % 4
            if kind == 0:
                a, b = rng.random(n), rng.random(n)
            elif kind == 1:  # rounded scores: many tied differences
                a, b = rng.random(n).round(1), rng.random(n).round(1)
            elif kind == 2:  # a few repeated values, zero differences included
                a, b = rng.choice([0.0, 0.25, 0.5, 1.0], n), rng.choice([0.0, 0.25, 0.5, 1.0], n)
            else:  # k/7: inexact binary fractions whose sums tie mathematically
                a, b = rng.integers(0, 8, n) / 7, rng.integers(0, 8, n) / 7
            cases.append((a.tolist(), b.tolist()))
        cases.append(([0.6] * 20, [0.5] * 20))
        cases.append(((rng.integers(0, 8, 20) / 7).tolist(), (rng.integers(0, 8, 20) / 7).tolist()))
        for a, b in cases:
            assert randomization_test(a, b).hex() == full_exact_p(a, b).hex(), (a, b)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 21):
            a = list(rng.random(n))
            b = list(rng.random(n))
            p = randomization_test(a, b, n_perm=2000, seed=0)
            assert 0.0 < p <= 1.0

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected_with_its_index(self, method, bad):
        a = [0.1, 0.2, 0.3, 0.4]
        b = [0.4, 0.3, bad, 0.1]
        with pytest.raises(ValueError, match=r"scores_b\[2\] is not finite"):
            randomization_test(a, b, n_perm=100, method=method)
        with pytest.raises(ValueError, match=r"scores_a\[2\] is not finite"):
            randomization_test(b, a, n_perm=100, method=method)

    def test_overflowing_difference_rejected_with_its_index(self):
        with pytest.raises(ValueError, match="index 1 overflows"):
            randomization_test([0.0, 1.7e308], [0.0, -1.7e308])


def _mitm_cases():
    """Inputs for the meet-in-the-middle count: ties, zeros, extreme scales."""
    rng = np.random.default_rng(31)
    cases = [
        ([0.25, -0.25, 0.5, -0.5], [0.0] * 4),  # observed |sum| exactly 0
        ([0.1, 0.2, -0.3], [0.0] * 3),  # observed 5.6e-17, within the margin of 0
        ([0.4, 0.9, 0.3], [0.4, 0.9, 0.3]),  # all differences zero
        ([0.0, 0.7, 0.0, 0.0], [0.0] * 4),  # one nonzero difference
        ([0.3, 0.1, 0.5, 0.2], [0.1, 0.4, 0.2, 0.2]),  # zero in the last column
        ([5e-324, -5e-324, 1e-323], [0.0] * 3),  # subnormal differences
        ([1.6e307] * 12, [0.0] * 12),  # Σ|d| overflows: every row rebuilt
        ([3e306] * 11 + [-2e306], [-1e306] * 12),  # only 4Σ|d| overflows
    ]
    for n in range(2, 21):
        reps = 3 if n <= 14 else 1
        for rep in range(reps):
            kinds = range(10) if n <= 14 else [(n + rep) % 10]
            for kind in kinds:
                if kind == 0:  # a permutation of a: Σd is 0 or a rounding away from it
                    a = rng.random(n)
                    b = rng.permutation(a)
                elif kind == 1:
                    a = rng.integers(0, 8, n) / 7
                    b = rng.permutation(a)
                elif kind == 2:  # {±1/7, 2/7}: many sums tie mathematically
                    a, b = rng.choice([-1 / 7, 1 / 7, 2 / 7], n), np.zeros(n)
                elif kind == 3:
                    a, b = rng.random(n) * 1e-300, rng.random(n) * 1e-300
                elif kind == 4:
                    a, b = rng.random(n) * 1e300, rng.random(n) * 1e300
                elif kind == 5:  # mixed scales
                    a = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
                    b = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
                elif kind == 6:  # zeros, the last column included
                    a, b = rng.random(n).round(1), rng.random(n).round(1)
                    a[rng.random(n) < 0.4] = 0.0
                    b[a == 0.0] = 0.0
                    b[-1] = a[-1]
                elif kind == 7:  # one nonzero difference among zeros
                    a, b = np.zeros(n), np.zeros(n)
                    a[rng.integers(n)] = rng.random()
                elif kind == 8:
                    a = rng.choice([0.0, 0.25, 0.5, 1.0], n)
                    b = rng.choice([0.0, 0.25, 0.5, 1.0], n)
                else:
                    a, b = rng.random(n), rng.random(n)
                cases.append((a.tolist(), b.tolist()))
    return cases


class TestMeetInTheMiddleCount:
    def test_matches_the_full_enumeration_bitwise(self):
        cases = _mitm_cases()
        assert len(cases) >= 400
        for a, b in cases:
            p = randomization_test(a, b, method="exact")
            assert p.hex() == full_exact_p(a, b).hex(), (a, b)
            assert 0.0 < p <= 1.0

    def test_matches_the_full_enumeration_past_the_exact_limit(self):
        rng = np.random.default_rng(37)
        a, b = (rng.integers(0, 8, 21) / 7).tolist(), (rng.integers(0, 8, 21) / 7).tolist()
        assert randomization_test(a, b, method="exact").hex() == full_exact_p(a, b).hex()

    def test_rebuilds_at_most_half_the_rows_in_bounded_blocks(self, monkeypatch):
        blocks = []
        flip_count = evalkit._flip_count

        def spy(diffs, sign_blocks):
            sign_blocks = list(sign_blocks)
            blocks.extend(len(s) for s in sign_blocks)
            return flip_count(diffs, sign_blocks)

        monkeypatch.setattr(evalkit, "_flip_count", spy)
        # |sum| 2/7, tied by the C(20, 9) rows of eleven -1/7 terms: all of
        # them fall within the margin
        a = [1 / 7] * 11 + [-1 / 7] * 9
        assert randomization_test(a, [0.0] * 20).hex() == full_exact_p(a, [0.0] * 20).hex()
        assert sum(blocks) == math.comb(20, 9) and max(blocks) == 1 << 16
        blocks.clear()
        randomization_test([1e307] * 12, [0.0] * 12)  # 4Σ|d| overflows: every row
        assert sum(blocks) == 1 << 11
        blocks.clear()
        rng = np.random.default_rng(41)
        randomization_test(rng.random(20).tolist(), rng.random(20).tolist())
        assert sum(blocks) <= 16


_scores = st.one_of(
    st.sampled_from([0.0, 1 / 7, 2 / 7, 3 / 7, 0.25, 0.5, 1.0]),
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(_scores, _scores), min_size=2, max_size=12))
@example(pairs=[(0.0, 0.0), (0.0, 0.0)])
@example(pairs=[(1 / 7, 0.0), (1 / 7, 0.0), (2 / 7, 0.0), (-1 / 7, 0.0)])
def test_exact_p_value_property(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    p = randomization_test(a, b)
    assert p.hex() == full_exact_p(a, b).hex()
    assert 0.0 < p <= 1.0


class TestQrelsIO:
    def test_round_trip(self, tmp_path):
        q = Qrels()
        q.add("sky", "x1", 1)
        q.add("sky", "x2", 0)
        q.add("sea", "x1", 1)
        path = tmp_path / "qrels.tsv"
        write_qrels(path, q)
        got = read_qrels(path)
        assert got.judgments == q.judgments
        assert got.relevant("sky") == {"x1"}

    def test_bad_relevance_value(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("sky\tx1\t2\n")
        with pytest.raises(EvalFormatError):
            read_qrels(path)

    def test_duplicate_judgment(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("sky\tx1\t1\nsky\tx1\t1\n")
        with pytest.raises(EvalFormatError, match="duplicate"):
            read_qrels(path)

    def test_unjudged_defaults_to_irrelevant(self):
        q = Qrels()
        q.add("sky", "x1", 1)
        assert "x9" not in q.relevant("sky")


class TestRunIO:
    def run(self):
        t1 = dict_table("e", "sky", {"x1": 0.9, "x2": 0.4, "x3": 0.4})
        t2 = dict_table("e", "sea", {"x1": 0.1, "x9": 0.8})
        return run_from_tables("myrun", [t1, t2])

    def test_tie_rule_in_run_construction(self):
        run = self.run()
        assert run.ranking("sky") == ["x1", "x2", "x3"]

    def test_round_trip(self, tmp_path):
        run = self.run()
        path = tmp_path / "r.run"
        write_run(path, run)
        got = read_run(path)
        assert got.run_id == run.run_id
        assert got.rankings == run.rankings

    def test_four_field_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "r.run"
        path.write_text("sky\tx1\t1\t0.5\n")
        with pytest.raises(EvalFormatError, match=":1"):
            read_run(path)

    def test_duplicate_tag_image_rejected(self, tmp_path):
        path = tmp_path / "r.run"
        path.write_text("sky\tx1\t1\t0.5\trun\nsky\tx1\t2\t0.4\trun\n")
        with pytest.raises(EvalFormatError, match="duplicate"):
            read_run(path)

    def test_non_contiguous_rank_rejected(self, tmp_path):
        path = tmp_path / "r.run"
        path.write_text("sky\tx1\t1\t0.5\trun\nsky\tx2\t3\t0.4\trun\n")
        with pytest.raises(EvalFormatError, match="contiguous"):
            read_run(path)

    def test_tie_rule_violation_rejected(self, tmp_path):
        path = tmp_path / "r.run"
        path.write_text("sky\tx2\t1\t0.5\trun\nsky\tx1\t2\t0.5\trun\n")
        with pytest.raises(EvalFormatError, match="tie rule"):
            read_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected_with_line_number(self, tmp_path, score):
        path = tmp_path / "r.run"
        path.write_text(f"sky\tx1\t1\t0.9\tr\nsky\tx2\t2\t{score}\tr\n")
        with pytest.raises(EvalFormatError, match=r"r\.run:2: non-finite score"):
            read_run(path)


class TestEvaluation:
    def test_perfect_run(self):
        run = run_from_tables(
            "r", [dict_table("e", "sky", {"x1": 0.9, "x2": 0.1})]
        )
        q = Qrels()
        q.add("sky", "x1", 1)
        ev = evaluate_run(run, q)
        assert ev.per_concept["sky"] == (1.0, 1.0)
        assert ev.mean_ap == 1.0

    def test_missing_tag_flagged_and_scored_zero(self):
        run = run_from_tables("r", [dict_table("e", "sky", {"x1": 0.9})])
        ev = evaluate_run(run, Qrels())
        assert ev.per_concept["sky"] == (0.0, 0.0)
        assert ev.unjudged_tags == {"sky"}

    def test_missing_concept_scores_zero_and_is_flagged(self):
        q = Qrels()
        q.add("easy", "x1", 1)
        q.add("hard", "x2", 1)
        both = run_from_tables("both", [
            dict_table("e", "easy", {"x1": 0.9, "x2": 0.1}),
            dict_table("e", "hard", {"x1": 0.9, "x2": 0.1}),
        ])
        partial = run_from_tables("partial", [dict_table("e", "easy", {"x1": 0.9, "x2": 0.1})])
        assert evaluate_run(both, q).mean_ap == 0.75
        ev = evaluate_run(partial, q)
        assert ev.per_concept["hard"] == (0.0, 0.0)
        assert ev.missing_tags == {"hard"} and not ev.unjudged_tags
        assert ev.mean_ap == 0.5
        report = render_report([both, partial], q)
        assert "hard\t0.000000\t0.000000\t[missing]" in report
        assert "mAP\tpartial\t0.500000" in report
        # the paired test runs over both concepts, the missing one at 0
        assert f"p\tAP\tboth\tpartial\t{randomization_test([1.0, 0.5], [1.0, 0.0]):.6g}" in report

    def test_report_contains_tables_and_pvalues(self):
        t = dict_table("e", "sky", {"x1": 0.9, "x2": 0.5})
        run1 = run_from_tables("alpha", [t])
        run2 = run_from_tables(
            "beta", [dict_table("e", "sky", {"x1": 0.2, "x2": 0.5})]
        )
        q = Qrels()
        q.add("sky", "x1", 1)
        report = render_report([run1, run2], q, n_perm=100, seed=0)
        assert "run\talpha" in report
        assert "concept\tAP\tNDCG@100" in report
        assert "mAP\talpha\t1.000000" in report
        assert "p\tAP\talpha\tbeta" in report

    def test_report_deterministic(self):
        rng = np.random.default_rng(4)
        tables = [
            dict_table("e", f"t{k}", {f"x{i}": float(v) for i, v in enumerate(rng.random(6))})
            for k in range(3)
        ]
        run = run_from_tables("r", tables)
        q = Qrels()
        for k in range(3):
            q.add(f"t{k}", "x0", 1)
            q.add(f"t{k}", "x3", 1)
        r1 = render_report([run], q)
        r2 = render_report([run], q)
        assert r1 == r2
