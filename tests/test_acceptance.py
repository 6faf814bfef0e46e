"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see the lines as the criteria complete.
"""
import itertools
import math
import time

import numpy as np

from tagfusion.cli import main
from tagfusion.collection import (
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    synthetic_tag_names,
)
from tagfusion.estimators import (
    ScoreTable,
    neighbor_vote,
    neighbor_vote_table,
)
from tagfusion.evalkit import (
    Qrels,
    average_precision,
    mean_over_concepts,
    ndcg_at,
    randomization_test,
)
from tagfusion.fusion import (
    ScoreBounds,
    borda_rank,
    late_fuse,
    minmax_normalize,
    neighbor_vote_bounds,
    observed_bounds,
    rankmax_normalize,
)
from tagfusion.learning import (
    AscentConfig,
    coordinate_ascent,
    learn_distance_weights,
    learn_per_concept,
)
from tagfusion.neighbors import NeighborList, WeightVector, knn

from conftest import make_collection
from oracles import average_fuse, dict_table, scores_of


def _report(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\n[acceptance] criterion {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(
        str(f) for f in failures[:5]
    )


# ---------------------------------------------------------------------------
# 1. equation oracles
# ---------------------------------------------------------------------------


def test_criterion_1_equation_oracles():
    failures = []
    t0 = time.time()
    tol = 1e-9

    def check(label, got, expected):
        if abs(got - expected) > tol:
            failures.append(f"{label}: got {got!r}, expected {expected!r}")

    # neighbor_vote: 4 of 10 neighbors tagged, prior 100/1000
    records = [(f"img{i:04d}", "u", ["w"] if i < 100 else []) for i in range(1000)]
    c = make_collection(records)
    ids = [f"img{i:04d}" for i in range(4)] + [f"img{i:04d}" for i in range(500, 506)]
    nl = NeighborList("img0999", tuple((i, float(k)) for k, i in enumerate(ids)))
    check("neighbor_vote", neighbor_vote(c, nl, "w", 10), 0.3)

    # minmax: g = 0.3 against bounds [-0.1, 0.9]
    st = dict_table("e", "w", {"a": 0.3})
    check("minmax_normalize", scores_of(minmax_normalize(st, ScoreBounds(-0.1, 0.9)))["a"], 0.4)

    # rankmax: top of 4 -> 0.75, bottom -> 0.0
    st4 = dict_table("e", "w", {"a": 9.0, "b": 5.0, "c": 2.0, "d": 1.0})
    rm = scores_of(rankmax_normalize(st4))
    check("rankmax_normalize top", rm["a"], 0.75)
    check("rankmax_normalize bottom", rm["d"], 0.0)

    # late_fuse: uniform over (0.2, 0.4) -> 0.3
    fused = late_fuse(
        [dict_table("e0", "w", {"a": 0.2}), dict_table("e1", "w", {"a": 0.4})],
        WeightVector.uniform(["e0", "e1"]),
    )
    check("late_fuse", scores_of(fused)["a"], 0.3)

    # average precision: [R, N, R, N] -> (1 + 2/3) / 2
    check(
        "average_precision",
        average_precision(["a", "b", "c", "d"], {"a", "c"}),
        (1.0 + 2.0 / 3.0) / 2.0,
    )

    # NDCG: [R, N, R] at cutoff 3 -> 1.5 / (1 + 1/log2(3))
    check(
        "ndcg_at",
        ndcg_at(["a", "b", "c"], {"a", "c"}, cutoff=3),
        1.5 / (1.0 + 1.0 / math.log2(3)),
    )

    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"oracle checks took {elapsed:.2f}s (budget 1s)")
    _report(1, "equation oracles", failures)


# ---------------------------------------------------------------------------
# 2. Borda equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_borda_equivalence():
    failures = []
    for seed in range(200):
        rng = np.random.default_rng([2, seed])
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 51))
        ids = [f"c{i:02d}" for i in range(n)]
        quantize = int(rng.integers(2, 9)) if rng.random() < 0.5 else 0
        tables = []
        for j in range(m):
            values = rng.random(n)
            if quantize:
                values = np.round(values * quantize) / quantize
            tables.append(ScoreTable(f"e{j}", "w", ids, values))
        fused = average_fuse([rankmax_normalize(t) for t in tables])
        if fused.ranking() != borda_rank(tables):
            failures.append(f"seed {seed}: rankmax-average ordering != Borda")
    _report(2, "Borda equivalence over 200 instances", failures)


# ---------------------------------------------------------------------------
# 3. reduction properties
# ---------------------------------------------------------------------------


def test_criterion_3_reduction_properties():
    failures = []
    for seed in range(100):
        rng = np.random.default_rng([3, seed])

        # early fusion with one-hot weights == single-feature estimator, bit-exact
        n = int(rng.integers(8, 25))
        rows_a = rng.uniform(0, 1, size=(n, 2))
        rows_b = rng.uniform(0, 1, size=(n, 3))
        tagged = rng.random(n) < 0.5
        if not tagged.any():
            tagged[0] = True
        records = [
            (f"x{i:02d}", "u", ["w"] if tagged[i] else []) for i in range(n)
        ]
        c = make_collection(records, {"fa": rows_a, "fb": rows_b})
        hot = "fa" if rng.random() < 0.5 else "fb"
        wv = WeightVector.one_hot(["fa", "fb"], hot)
        k = int(rng.integers(1, n))
        queries = rng.choice(n, size=min(3, n), replace=False)
        for qi in queries:
            q = f"x{qi:02d}"
            nl_direct = knn(c, hot, q, k)
            nl_fused = knn(c, wv, q, k)
            if nl_fused != nl_direct:
                failures.append(f"seed {seed}: one-hot knn differs for {q}")
                continue
            direct = neighbor_vote(c, nl_direct, "w", k)
            from tagfusion.estimators import early_fused_score

            fused = early_fused_score(c, q, "w", wv, None, k)
            if fused != direct:
                failures.append(f"seed {seed}: early one-hot score differs for {q}")

        # late fusion with one-hot weights == the normalized base table, bit-exact
        m = int(rng.integers(2, 7))
        n_cand = int(rng.integers(2, 21))
        ids = [f"c{i:02d}" for i in range(n_cand)]
        tables = [
            ScoreTable(f"e{j}", "w", ids, rng.random(n_cand)) for j in range(m)
        ]
        if rng.random() < 0.5:
            normalized = [rankmax_normalize(t) for t in tables]
        else:
            normalized = [minmax_normalize(t, observed_bounds(t)) for t in tables]
        hot_idx = int(rng.integers(0, m))
        wv = WeightVector.one_hot([t.estimator for t in normalized], f"e{hot_idx}")
        out = late_fuse(normalized, wv)
        if scores_of(out) != scores_of(normalized[hot_idx]):
            failures.append(f"seed {seed}: late one-hot != base table")
    _report(3, "one-hot reduction properties over 100 instances", failures)


# ---------------------------------------------------------------------------
# 4. learner monotonicity and optimality
# ---------------------------------------------------------------------------


def _grid_best_ap(tables, relevant, resolution=0.005):
    names = [t.estimator for t in tables]
    best = -1.0
    for step in range(int(round(1 / resolution)) + 1):
        lam = step * resolution
        wv = WeightVector(tuple(names), (lam, 1.0 - lam)) if lam in (0.0, 1.0) else (
            WeightVector.normalized(names, [lam, 1.0 - lam])
        )
        best = max(best, average_precision(late_fuse(tables, wv).ranking(), relevant))
    return best


def test_criterion_4_learner_monotonicity_and_optimality():
    failures = []

    # coordinate ascent vs 0.005-resolution simplex grid, 50 seeds
    ascent_cfg = dict(delta0=0.01, steps=14, restarts=5)
    for seed in range(50):
        rng = np.random.default_rng([41, seed])
        n = int(rng.integers(3, 9))
        ids = [f"c{i}" for i in range(n)]
        tables = [
            ScoreTable(f"e{j}", "w", ids, rng.random(n)) for j in range(2)
        ]
        n_rel = int(rng.integers(1, max(2, n // 2) + 1))
        relevant = frozenset(rng.choice(ids, size=n_rel, replace=False).tolist())
        qrels = Qrels()
        for x in relevant:
            qrels.add("w", x, 1)
        result = coordinate_ascent({"w": tables}, qrels, AscentConfig(seed=seed, **ascent_cfg))
        objectives = [move[3] for move in result.trace]
        if objectives != sorted(objectives):
            failures.append(f"seed {seed}: ascent trace decreased")
        grid = _grid_best_ap(tables, relevant)
        if abs(result.objective - grid) > 1e-6:
            failures.append(
                f"seed {seed}: ascent {result.objective:.8f} vs grid {grid:.8f}"
            )

    # projected gradient: non-increasing loss and grid-oracle agreement on toys
    def pg_toy(kind, rng, n_pairs=60):
        y = rng.integers(0, 2, size=n_pairs)
        if kind == "identical":
            base = rng.uniform(0, 1.5, size=n_pairs)
            return np.column_stack([base, base]), y
        if kind == "separating":
            d_a = np.where(y == 1, 0.05, 2.0) + rng.uniform(0, 0.01, n_pairs)
            d_b = rng.uniform(0.5, 1.5, size=n_pairs)
            return np.column_stack([d_a, d_b]), y
        d_a = np.where(y == 1, 0.2, 1.2) + rng.uniform(0, 0.1, n_pairs)
        d_b = np.where(y == 1, 0.4, 1.0) + rng.uniform(0, 0.1, n_pairs)
        return np.column_stack([d_a, d_b]), y

    for seed in range(12):
        rng = np.random.default_rng([42, seed])
        kind = ("identical", "separating", "mixed")[seed % 3]
        d, y = pg_toy(kind, rng)
        result = learn_distance_weights(d, y, ["fa", "fb"])
        if list(result.trace) != sorted(result.trace, reverse=True):
            failures.append(f"pg seed {seed}: loss trace increased")
        lams = np.linspace(0.0, 1.0, 10001)
        combos = np.outer(d[:, 0], lams) + np.outer(d[:, 1], 1.0 - lams)
        losses = ((np.exp(-combos) - y[:, None]) ** 2).sum(axis=0)
        grid = float(losses.min())
        if abs(result.loss - grid) > 1e-6:
            failures.append(f"pg seed {seed} ({kind}): loss {result.loss} vs grid {grid}")
    _report(4, "learner monotonicity and grid optimality", failures)


# ---------------------------------------------------------------------------
# 5. trend reproduction on synthetic data
# ---------------------------------------------------------------------------


def _trend_world(seed):
    tags = synthetic_tag_names(20)
    half = len(tags) // 2
    cfg = SyntheticConfig(
        n_images=2000,
        n_tags=20,
        n_users=50,
        features=(
            SyntheticFeature("visa", 8, frozenset(tags[:half])),
            SyntheticFeature("visb", 8, frozenset(tags[half:])),
        ),
        q_correct=0.9,
        q_incorrect=0.05,
        cluster_spread=0.05,
        seed=seed,
    )
    return generate_collection(cfg)


def _restrict(st, keep):
    return dict_table(st.estimator, st.tag, {x: s for x, s in scores_of(st).items() if x in keep})


def test_criterion_5_trend_reproduction():
    failures = []
    k = 50
    n_seeds = 20
    fused_means, best_means = [], []
    learned_means, uniform_means = [], []
    significant = 0
    t0 = time.time()
    for seed in range(n_seeds):
        c, truth = _trend_world(seed)
        qrels = Qrels.from_ground_truth(truth)
        tables = {}
        for tag in sorted(c.tag_index):
            per_feature = []
            for f in ("visa", "visb"):
                raw = neighbor_vote_table(c, tag, f, k)
                per_feature.append(minmax_normalize(raw, neighbor_vote_bounds(c, tag)))
            tables[tag] = per_feature

        ap = {"visa": {}, "visb": {}, "fused": {}}
        for tag, (ta, tb) in tables.items():
            rel = qrels.relevant(tag)
            ap["visa"][tag] = average_precision(ta.ranking(), rel)
            ap["visb"][tag] = average_precision(tb.ranking(), rel)
            ap["fused"][tag] = average_precision(average_fuse([ta, tb]).ranking(), rel)
        m_visa = mean_over_concepts(ap["visa"])
        m_visb = mean_over_concepts(ap["visb"])
        best = "visa" if m_visa >= m_visb else "visb"
        best_means.append(max(m_visa, m_visb))
        fused_means.append(mean_over_concepts(ap["fused"]))

        order = sorted(tables)
        p = randomization_test(
            [ap["fused"][t] for t in order], [ap[best][t] for t in order]
        )
        if p <= 0.01:
            significant += 1

        # held-out comparison: per-concept learned weights vs uniform
        rng = np.random.default_rng([5, seed])
        ids = [r.image_id for r in c.images]
        in_train = rng.random(len(ids)) < 0.5
        train_ids = {i for i, m in zip(ids, in_train) if m}
        test_ids = set(ids) - train_ids
        train_tables = {
            t: [_restrict(x, train_ids) for x in tabs] for t, tabs in tables.items()
        }
        test_tables = {
            t: [_restrict(x, test_ids) for x in tabs] for t, tabs in tables.items()
        }
        train_tables = {t: tabs for t, tabs in train_tables.items() if len(tabs[0])}
        uniform = WeightVector.uniform(["tagrel:visa", "tagrel:visb"])
        pc = learn_per_concept(
            train_tables, qrels, AscentConfig(seed=seed), min_pos=1, global_weights=uniform
        )
        ap_learned, ap_uniform = [], []
        for tag, tabs in test_tables.items():
            if not len(tabs[0]):
                continue
            rel = qrels.relevant(tag)
            wv = pc.per_concept.get(tag, uniform)
            ap_learned.append(average_precision(late_fuse(tabs, wv).ranking(), rel))
            ap_uniform.append(average_precision(late_fuse(tabs, uniform).ranking(), rel))
        learned_means.append(sum(ap_learned) / len(ap_learned))
        uniform_means.append(sum(ap_uniform) / len(ap_uniform))

    elapsed = time.time() - t0
    mean_fused = sum(fused_means) / n_seeds
    mean_best = sum(best_means) / n_seeds
    mean_learned = sum(learned_means) / n_seeds
    mean_uniform = sum(uniform_means) / n_seeds
    print(
        f"\n[acceptance] criterion 5 detail: fused mAP {mean_fused:.4f} vs best single "
        f"{mean_best:.4f}; held-out learned {mean_learned:.4f} vs uniform {mean_uniform:.4f}; "
        f"significant {significant}/{n_seeds}; {elapsed:.0f}s"
    )
    if not mean_fused > mean_best:
        failures.append(f"(a) fused {mean_fused} not above best single {mean_best}")
    if not mean_learned >= mean_uniform - 0.005:
        failures.append(f"(b) learned {mean_learned} below uniform {mean_uniform} - 0.005")
    if significant < 15:
        failures.append(f"(c) significant in only {significant}/20 seeds")
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 minutes")
    _report(5, "trend reproduction on synthetic data", failures)


# ---------------------------------------------------------------------------
# 6. significance-test exactness
# ---------------------------------------------------------------------------


def test_criterion_6_significance_exactness():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng([97, seed])
        n = int(rng.integers(5, 21))
        a = rng.random(n)
        b = a + rng.normal(0, 0.15, n)
        exact = randomization_test(list(a), list(b), method="exact")
        mc = randomization_test(list(a), list(b), n_perm=100_000, seed=seed, method="montecarlo")
        if abs(mc - exact) > 0.005:
            failures.append(f"seed {seed}: |{mc} - {exact}| > 0.005")
    _report(6, "Monte-Carlo p within 0.005 of exact enumeration", failures)


# ---------------------------------------------------------------------------
# 7. metric monotonicity (exhaustive)
# ---------------------------------------------------------------------------


def _brute_ap(ranking, relevant):
    r = [1 if x in relevant else 0 for x in ranking]
    total = sum(r)
    if total == 0:
        return 0.0
    return sum(sum(r[: p + 1]) / (p + 1) for p in range(len(r)) if r[p]) / total


def _brute_ndcg(ranking, relevant, cutoff):
    r = [1 if x in relevant else 0 for x in ranking]
    dcg = sum(r[i] / math.log2(i + 2) for i in range(min(cutoff, len(r))))
    ideal = sorted(r, reverse=True)
    idcg = sum(ideal[i] / math.log2(i + 2) for i in range(min(cutoff, len(r))))
    return dcg / idcg if idcg > 0 else 0.0


def test_criterion_7_metric_monotonicity_exhaustive():
    failures = []
    for n in range(1, 7):
        ids = [f"c{i}" for i in range(n)]
        for rel_mask in itertools.product([0, 1], repeat=n):
            relevant = {ids[i] for i in range(n) if rel_mask[i]}
            for perm in itertools.permutations(ids):
                ap = average_precision(perm, relevant)
                nd = ndcg_at(perm, relevant, cutoff=100)
                if abs(ap - _brute_ap(perm, relevant)) > 1e-12:
                    failures.append(f"AP mismatch on {perm} / {sorted(relevant)}")
                if abs(nd - _brute_ndcg(perm, relevant, 100)) > 1e-12:
                    failures.append(f"NDCG mismatch on {perm} / {sorted(relevant)}")
                for pos in range(1, n):
                    if perm[pos] in relevant and perm[pos - 1] not in relevant:
                        promoted = list(perm)
                        promoted[pos - 1], promoted[pos] = promoted[pos], promoted[pos - 1]
                        if average_precision(promoted, relevant) < ap - 1e-15:
                            failures.append(f"AP decreased promoting in {perm}")
                        if ndcg_at(promoted, relevant, cutoff=100) < nd - 1e-15:
                            failures.append(f"NDCG decreased promoting in {perm}")
                if failures:
                    break
            if failures:
                break
        if failures:
            break
    _report(7, "exhaustive metric monotonicity <= 6 items", failures)


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------


def _run_pipeline(base):
    base.mkdir()
    data = base / "data"
    assert main([
        "synth", "--out", str(data), "--images", "120", "--tags", "4",
        "--features", "visa:2,visb:2", "--seed", "23",
    ]) == 0
    tags = str(data / "tags.tsv")
    feats = f"{data / 'visa.tsv'},{data / 'visb.tsv'}"
    qrels = str(data / "qrels.tsv")
    learned = base / "learned"
    assert main([
        "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
        "--scheme", "late", "--norm", "minmax", "--per-concept",
        "--k", "10", "--out", str(learned), "--seed", "23",
    ]) == 0
    runs = []
    for preset, extra in [
        ("tagrel-visa", []),
        ("late-minmax-average", []),
        ("late-rankmax-average", []),
        (
            "late-minmax-learning+",
            [
                "--weights", str(learned / "weights-global.tsv"),
                "--concept-weights", str(learned / "weights-concepts.tsv"),
            ],
        ),
    ]:
        out = base / f"{preset}.run"
        assert main([
            "score", "--tags", tags, "--features", feats, "--preset", preset,
            "--k", "10", "--seed", "23", "--out", str(out), *extra,
        ]) == 0
        runs.append(out)
    report = base / "report.txt"
    assert main([
        "eval", "--qrels", qrels, "--out", str(report), "--seed", "23",
        *[str(r) for r in runs],
    ]) == 0
    artifacts = [data / "tags.tsv", data / "visa.tsv", data / "visb.tsv", data / "qrels.tsv"]
    artifacts += [learned / "weights-global.tsv", learned / "weights-concepts.tsv", learned / "learn.log"]
    artifacts += runs + [report]
    return artifacts


def test_criterion_8_cli_determinism(tmp_path, capsys):
    failures = []
    first = _run_pipeline(tmp_path / "one")
    second = _run_pipeline(tmp_path / "two")
    capsys.readouterr()  # silence pipeline chatter
    for a, b in zip(first, second):
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{a.name} differs between identical runs")
    _report(8, "CLI pipelines byte-identical under fixed seeds", failures)
