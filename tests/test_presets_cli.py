import re
import warnings

import numpy as np
import pytest

import tagfusion.learning as learning
from tagfusion.cli import COMMANDS, REQUIRED, _bool, _csv, main
from tagfusion.collection import (
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    images_with_tag,
    load_collection,
    save_collection,
)
from tagfusion.estimators import neighbor_vote_table
from tagfusion.evalkit import Qrels, average_precision, read_qrels, read_run, write_qrels
from tagfusion.fusion import borda_rank, read_weights
from tagfusion.neighbors import WeightVector
from tagfusion.presets import ScoreSettings, available_presets, derive_seed, score_preset

from conftest import make_collection
from oracles import mean_metric_rows, scores_of


def small_world(seed=0, n=80, tags=4):
    cfg = SyntheticConfig(
        n_images=n,
        n_tags=tags,
        n_users=5,
        features=(SyntheticFeature("visa", 2), SyntheticFeature("visb", 2)),
        q_correct=0.9,
        q_incorrect=0.05,
        cluster_spread=0.05,
        seed=seed,
    )
    return generate_collection(cfg)


class TestPresetRegistry:
    def test_exhaustive_preset_list(self):
        names = available_presets(("color", "cslbp", "gist", "dsift"))
        assert len(names) == 19
        fusion = [n for n in names if "-" in n and n.split("-")[0] in ("early", "late")]
        assert len([n for n in fusion if not n.startswith("tagrel")]) == 12
        assert {"tagrel-color", "tagrel-cslbp", "tagrel-gist", "tagrel-dsift"} <= set(names)
        assert {"tagposition", "semanticfield", "tagranking"} <= set(names)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")


class TestScorePreset:
    def test_tagrel_single_equals_sorted_neighbor_votes(self):
        c, _ = small_world()
        settings = ScoreSettings(features=("visa", "visb"), k=10)
        run = score_preset(c, "tagrel-visa", settings)
        for tag in run.tags():
            expected = neighbor_vote_table(c, tag, "visa", 10)
            assert run.ranking(tag) == expected.ranking()
            assert dict(run.rankings[tag]) == scores_of(expected)

    def test_late_rankmax_average_matches_borda_oracle(self):
        c, _ = small_world(seed=1)
        settings = ScoreSettings(features=("visa", "visb"), k=10)
        run = score_preset(c, "late-rankmax-average", settings)
        for tag in run.tags():
            raw = [
                neighbor_vote_table(c, tag, f, 10) for f in ("visa", "visb")
            ]
            assert run.ranking(tag) == borda_rank(raw)

    def test_early_with_one_feature_reduces_to_tagrel(self):
        c, _ = small_world(seed=2)
        settings = ScoreSettings(features=("visa",), k=10)
        early = score_preset(c, "early-minmax-average", settings)
        single = score_preset(c, "tagrel-visa", settings)
        for tag in early.tags():
            assert early.ranking(tag) == single.ranking(tag)

    def test_learned_preset_requires_weights(self):
        c, _ = small_world(seed=3)
        settings = ScoreSettings(features=("visa", "visb"), k=10)
        with pytest.raises(ValueError, match="weights"):
            score_preset(c, "late-minmax-learning", settings)
        with pytest.raises(ValueError, match="weights"):
            score_preset(c, "early-rankmax-learning+", settings)

    def test_unknown_preset_rejected(self):
        c, _ = small_world(seed=4)
        settings = ScoreSettings(features=("visa", "visb"))
        with pytest.raises(ValueError):
            score_preset(c, "late-minmax-magic", settings)

    def test_heterogeneous_estimators_fuse(self):
        c, _ = small_world(seed=5)
        settings = ScoreSettings(
            features=("visa", "visb"),
            k=10,
            estimators=("tagrel:visa", "tagposition", "semanticfield", "tagranking:visb"),
        )
        run = score_preset(c, "late-minmax-average", settings)
        assert run.tags() == sorted(c.tag_index)

    def test_query_tags_restrict_run(self):
        c, _ = small_world(seed=6)
        settings = ScoreSettings(features=("visa", "visb"), k=10, query_tags=("tag001",))
        run = score_preset(c, "tagrel-visb", settings)
        assert run.tags() == ["tag001"]

    def test_every_preset_scores_and_is_deterministic(self):
        from tagfusion.learning import AscentConfig, coordinate_ascent, learn_per_concept
        from tagfusion.presets import build_training_tables

        c, truth = small_world(seed=7)
        qrels = Qrels.from_ground_truth(truth)
        settings = ScoreSettings(features=("visa", "visb"), k=10)
        tables = build_training_tables(c, qrels.tags(), settings, "minmax")
        cfg = AscentConfig(seed=0, restarts=2, max_sweeps=10)
        late_global = coordinate_ascent(tables, qrels, cfg)
        late_pc = learn_per_concept(tables, qrels, cfg, global_weights=late_global.weights)
        early_global = WeightVector.normalized(("visa", "visb"), [0.6, 0.4])
        early_pc = {t: early_global for t in qrels.tags()}

        expected_tags = sorted(c.tag_index)
        for preset in available_presets(("visa", "visb")):
            if preset.startswith("late") and "learning" in preset:
                s = ScoreSettings(
                    features=("visa", "visb"), k=10,
                    weights=late_global.weights, concept_weights=late_pc.per_concept,
                )
            elif preset.startswith("early") and "learning" in preset:
                s = ScoreSettings(
                    features=("visa", "visb"), k=10,
                    weights=early_global, concept_weights=early_pc,
                )
            else:
                s = settings
            run1 = score_preset(c, preset, s)
            run2 = score_preset(c, preset, s)
            assert run1.tags() == expected_tags, preset
            assert run1.rankings == run2.rankings, preset
            for tag in run1.tags():
                assert set(run1.ranking(tag)) == set(images_with_tag(c, tag)), preset


def fabricate_perfect_vs_inverted(tmp_path):
    """visa's neighbor votes rank w's relevant candidates perfectly;
    visb's votes invert that order."""
    rel = ["r0", "r1", "r2"]
    irr = ["i0", "i1", "i2"]
    fillers = [f"f{i}" for i in range(6)]
    a = {
        "r0": 0.0, "r1": 0.01, "r2": 0.02,
        "i0": 10.0, "i1": 20.0, "i2": 30.0,
        "f0": 10.1, "f1": 10.2, "f2": 20.1, "f3": 20.2, "f4": 30.1, "f5": 30.2,
    }
    b = {
        "i0": 0.0, "i1": 0.01, "i2": 0.02,
        "r0": 10.0, "r1": 20.0, "r2": 30.0,
        "f0": 10.1, "f1": 10.2, "f2": 20.1, "f3": 20.2, "f4": 30.1, "f5": 30.2,
    }
    ids = rel + irr + fillers
    records = [(x, "u", ["w"] if x in rel + irr else []) for x in ids]
    c = make_collection(
        records,
        {
            "visa": [[a[x]] for x in ids],
            "visb": [[b[x]] for x in ids],
        },
    )
    save_collection(
        c, tmp_path / "tags.tsv", {"visa": tmp_path / "visa.tsv", "visb": tmp_path / "visb.tsv"}
    )
    q = Qrels()
    for x in rel:
        q.add("w", x, 1)
    write_qrels(tmp_path / "qrels.tsv", q)
    return c


# sha256 over each `synth` output file's name, a newline and its bytes, in
# name order, recorded before the generator drew tags without per-cell loops
SYNTH_PINNED = {
    "split": (
        "--images 200 --tags 6 --features visa:3,visb:3 --seed 29",
        "aba53748d92791d7eaf5e30a2f3dad713d3a483d34520cb07b1996c4bcd29b32",
    ),
    "all": (
        "--images 150 --tags 5 --informativeness all --features va:2,vb:4 --seed 3",
        "d90da4414eb81d0e6b8c996b5a9efdb59cd4116cb659f4c70232c1dcbb361bb4",
    ),
    "q-incorrect-0": (
        "--images 120 --tags 4 --q-incorrect 0 --seed 5",
        "952c17232e281536e5313691409ba80114ea1153852d717f104be9d1c7967307",
    ),
    "q-incorrect-0.9": (
        "--images 100 --tags 8 --q-correct 0.95 --q-incorrect 0.9 --seed 7",
        "7a732fe58ce95fd8065d5c89b94284f54663f316e1536ecd80a5e4949e385fed",
    ),
    "one-tag": (
        "--images 50 --tags 1 --users 3 --features f:2 --seed 11",
        "434f4811c8f8f64e67a6c074e83cc023d4438251e82b61a665558d6ecee0abe6",
    ),
    "tags-exceed-images": (
        "--images 10 --tags 40 --features f:3 --seed 13",
        "3f8856a01e3061fc32614f7e93f267aa62abcc294452d087f7d661f97cb92ce1",
    ),
    "three-dims": (
        "--images 90 --tags 7 --features a:1,b:4,c:9 --seed 17",
        "11c05f08f3cb35f2c3c72fb0e2b47515a2d72a2c85027f3ed6df5d4cb7b4e217",
    ),
}


class TestCliSynth:
    def test_determinism_byte_identical(self, tmp_path):
        args = [
            "synth", "--images", "60", "--tags", "3", "--users", "4",
            "--features", "va:2,vb:2", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("tags.tsv", "va.tsv", "vb.tsv", "qrels.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_output_parses_back(self, tmp_path):
        assert main([
            "synth", "--out", str(tmp_path), "--images", "2000", "--tags", "8",
            "--features", "va:3,vb:2", "--seed", "1",
        ]) == 0
        c = load_collection(tmp_path / "tags.tsv", [tmp_path / "va.tsv", tmp_path / "vb.tsv"])
        assert len(c) == 2000
        q = read_qrels(tmp_path / "qrels.tsv")
        assert len(q.tags()) == 8

    def test_q_invariant_violation_refused(self, tmp_path, capsys):
        code = main([
            "synth", "--out", str(tmp_path), "--q-correct", "0.1", "--q-incorrect", "0.5",
        ])
        assert code != 0
        assert "q_correct" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cluster_spread_refused(self, tmp_path, capsys, value):
        out = tmp_path / "world"
        assert main(["synth", "--out", str(out), "--cluster-spread", value]) == 2
        assert "error: cluster_spread must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_feature_name_that_is_a_path_writes_nothing(self, tmp_path, capsys, from_config):
        # each name becomes <out>/<name>.tsv: '../esc' would land beside the world
        root = tmp_path / "root"
        root.mkdir()
        cfg = tmp_path / "conf.txt"
        cfg.write_text("images = 20\ntags = 2\nfeatures = ../esc:2,a/b:2\n")
        given = ["--config", str(cfg)]
        if not from_config:
            given = ["--images", "20", "--tags", "2", "--features", "../esc:2,a/b:2"]
        assert main(["synth", "--out", str(root / "world"), *given]) == 2
        where = f"{cfg}:3: features:" if from_config else "features"
        assert capsys.readouterr().err == (
            f"error: {where} spec '../esc:2': name '../esc' is not a plain file name\n"
        )
        assert list(root.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.txt", "root"]

    def test_negative_seed_refused(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert main(["synth", "--out", str(out), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SYNTH_PINNED))
    def test_output_matches_pinned_hash(self, tmp_path, capsys, name):
        import hashlib

        args, want = SYNTH_PINNED[name]
        assert main(["synth", "--out", str(tmp_path), *args.split()]) == 0
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        assert digest.hexdigest() == want


class TestCliScoreLearnEval:
    def pipeline_files(self, tmp_path, seed=17):
        out = tmp_path / "data"
        assert main([
            "synth", "--out", str(out), "--images", "120", "--tags", "4",
            "--features", "visa:2,visb:2", "--seed", str(seed),
        ]) == 0
        return (
            str(out / "tags.tsv"),
            f"{out / 'visa.tsv'},{out / 'visb.tsv'}",
            str(out / "qrels.tsv"),
        )

    def test_score_writes_readable_run(self, tmp_path):
        tags, feats, _ = self.pipeline_files(tmp_path)
        run_path = tmp_path / "fresh" / "subdir" / "r.run"  # parents created
        assert main([
            "score", "--tags", tags, "--features", feats,
            "--preset", "late-minmax-average", "--k", "10", "--out", str(run_path),
        ]) == 0
        run = read_run(run_path)
        assert run.run_id == "late-minmax-average"
        assert len(run.rankings) == 4

    def test_learn_then_score_learned_presets(self, tmp_path):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        learned = tmp_path / "learned"
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--scheme", "late", "--norm", "minmax", "--per-concept",
            "--k", "10", "--out", str(learned), "--seed", "3",
        ]) == 0
        wv = read_weights(learned / "weights-global.tsv")
        assert set(wv.names) == {"tagrel:visa", "tagrel:visb"}
        assert (learned / "learn.log").exists()
        run_path = tmp_path / "lrn.run"
        assert main([
            "score", "--tags", tags, "--features", feats,
            "--preset", "late-minmax-learning+", "--k", "10",
            "--weights", str(learned / "weights-global.tsv"),
            "--concept-weights", str(learned / "weights-concepts.tsv"),
            "--out", str(run_path),
        ]) == 0
        assert read_run(run_path).run_id == "late-minmax-learning+"

    def test_learn_single_estimator_emits_weight_one(self, tmp_path):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        learned = tmp_path / "learned1"
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--scheme", "late", "--estimators", "tagrel:visa",
            "--k", "10", "--out", str(learned),
        ]) == 0
        wv = read_weights(learned / "weights-global.tsv")
        assert wv.names == ("tagrel:visa",)
        assert wv.weights == (1.0,)

    def test_learn_rerun_same_seed_identical_files(self, tmp_path):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        outs = []
        for sub in ("la", "lb"):
            out = tmp_path / sub
            assert main([
                "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
                "--scheme", "late", "--per-concept", "--k", "10",
                "--out", str(out), "--seed", "5",
            ]) == 0
            outs.append(out)
        for name in ("weights-global.tsv", "weights-concepts.tsv", "learn.log"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("delta0", "nan"),
            ("growth", "nan"),
            ("tol", "nan"),
            ("delta0", "inf"),
            ("growth", "inf"),
        ],
    )
    def test_learn_rejects_non_finite_ascent_settings(self, tmp_path, capsys, flag, value):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        out = tmp_path / "learned"
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--k", "10", "--out", str(out), f"--{flag}", value,
        ]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_score_names_the_weight_file_that_sums_to_zero(self, tmp_path, capsys):
        tags, feats, _ = self.pipeline_files(tmp_path)
        weights = tmp_path / "w.tsv"
        weights.write_text("# global\nvisa\t0\nvisb\t0\n")
        concept_weights = tmp_path / "c.tsv"
        concept_weights.write_text("w0\tvisa\t1\nw0\tvisb\t0\nw1\tvisa\t0\nw1\tvisb\t0\n")
        for preset, flag, path, where in (
            ("early-minmax-learning", "--weights", weights, f"{weights}:"),
            (
                "early-minmax-learning+", "--concept-weights", concept_weights,
                f"{concept_weights}:3: tag 'w1':",
            ),
        ):
            assert main([
                "score", "--tags", tags, "--features", feats, "--preset", preset,
                flag, str(path), "--k", "10", "--out", str(tmp_path / "r.run"),
            ]) == 2
            assert f"error: {where} weights sum to zero" in capsys.readouterr().err
        assert not (tmp_path / "r.run").exists()

    @pytest.mark.parametrize("cutoff", ["0", "-5"])
    def test_learn_rejects_cutoff_below_one(self, tmp_path, capsys, cutoff):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--scheme", "late", "--metric", "ndcg", "--cutoff", cutoff,
            "--k", "10", "--out", str(tmp_path / "learned"),
        ]) == 2
        assert "cutoff must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "learned" / "weights-global.tsv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cutoff", "0"],
            ["--restarts", "0"],
            ["--max-sweeps", "0"],
            ["--line-steps", "0"],
            ["--metric", "foo"],
            ["--scheme", "early", "--pairs", "0"],
            ["--scheme", "early", "--calib-sample-size", "0"],
        ],
    )
    def test_rejected_learn_leaves_no_output_directory(self, tmp_path, capsys, flags):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        out = tmp_path / "learned"
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--k", "10", "--out", str(out), *flags,
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, flags, message",
        [
            ("tagranking", ["--kde-sample-cap", "0"], "kde_sample_cap must be >= 1, got 0"),
            ("tagranking", ["--kde-sample-cap", "-3"], "kde_sample_cap must be >= 1, got -3"),
            (
                "early-minmax-average", ["--calib-sample-size", "0"],
                "calib_sample_size must be >= 1, got 0",
            ),
            ("tagrel-visa", ["--k", "0"], "k must be >= 1, got 0"),
        ],
    )
    def test_score_rejects_settings_below_one(self, tmp_path, capsys, preset, flags, message):
        tags, feats, _ = self.pipeline_files(tmp_path)
        run_path = tmp_path / "r.run"
        assert main([
            "score", "--tags", tags, "--features", feats, "--preset", preset,
            "--out", str(run_path), *flags,
        ]) == 2
        assert message in capsys.readouterr().err
        assert not run_path.exists()

    def test_score_rejects_non_finite_weight_files(self, tmp_path, capsys):
        tags, feats, _ = self.pipeline_files(tmp_path)
        weights = tmp_path / "w.tsv"
        weights.write_text("# global\nvisa\tnan\nvisb\tnan\n")
        concept_weights = tmp_path / "c.tsv"
        concept_weights.write_text("w0\tvisa\tinf\nw0\tvisb\t0.5\n")
        for preset, flag, path, line in (
            ("early-minmax-learning", "--weights", weights, 2),
            ("early-minmax-learning+", "--concept-weights", concept_weights, 1),
        ):
            assert main([
                "score", "--tags", tags, "--features", feats, "--preset", preset,
                flag, str(path), "--k", "10", "--out", str(tmp_path / "r.run"),
            ]) == 2
            assert f"{path}:{line}: weight must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.run").exists()

    def test_eval_rejects_non_finite_run_score(self, tmp_path, capsys):
        _, _, qrels = self.pipeline_files(tmp_path)
        run_path = tmp_path / "nan.run"
        run_path.write_text("w0\tx1\t1\tnan\tr\nw0\tx2\t2\tnan\tr\nw0\tx3\t3\t5.0\tr\n")
        assert main(["eval", "--qrels", qrels, str(run_path)]) == 2
        assert f"{run_path}:1: non-finite score" in capsys.readouterr().err

    def test_learn_early_scheme(self, tmp_path):
        tags, feats, qrels = self.pipeline_files(tmp_path)
        learned = tmp_path / "early"
        assert main([
            "learn", "--tags", tags, "--features", feats, "--qrels", qrels,
            "--scheme", "early", "--pairs", "200", "--per-concept",
            "--out", str(learned), "--seed", "2",
        ]) == 0
        wv = read_weights(learned / "weights-global.tsv")
        assert set(wv.names) == {"visa", "visb"}
        run_path = tmp_path / "early.run"
        assert main([
            "score", "--tags", tags, "--features", feats,
            "--preset", "early-minmax-learning+", "--k", "10",
            "--weights", str(learned / "weights-global.tsv"),
            "--concept-weights", str(learned / "weights-concepts.tsv"),
            "--out", str(run_path),
        ]) == 0
        assert read_run(run_path).run_id == "early-minmax-learning+"

    def test_cli_learn_reproduces_perfect_vs_inverted_toy(self, tmp_path):
        fabricate_perfect_vs_inverted(tmp_path)
        learned = tmp_path / "learned"
        assert main([
            "learn",
            "--tags", str(tmp_path / "tags.tsv"),
            "--features", f"{tmp_path / 'visa.tsv'},{tmp_path / 'visb.tsv'}",
            "--qrels", str(tmp_path / "qrels.tsv"),
            "--scheme", "late", "--k", "2", "--out", str(learned),
        ]) == 0
        wv = read_weights(learned / "weights-global.tsv")
        weights = dict(zip(wv.names, wv.weights))
        assert weights["tagrel:visa"] > weights["tagrel:visb"]
        # learned weights achieve the grid-oracle optimum: a perfect ranking
        run_path = tmp_path / "lrn.run"
        assert main([
            "score", "--tags", str(tmp_path / "tags.tsv"),
            "--features", f"{tmp_path / 'visa.tsv'},{tmp_path / 'visb.tsv'}",
            "--preset", "late-minmax-learning", "--k", "2",
            "--weights", str(learned / "weights-global.tsv"),
            "--out", str(run_path),
        ]) == 0
        run = read_run(run_path)
        q = read_qrels(tmp_path / "qrels.tsv")
        assert average_precision(run.ranking("w"), q.relevant("w")) == 1.0

    def test_eval_run_matching_qrels_scores_one(self, tmp_path, capsys):
        run_path = tmp_path / "perfect.run"
        run_path.write_text(
            "w\tx1\t1\t0.9\tperfect\n"
            "w\tx2\t2\t0.8\tperfect\n"
            "w\tx3\t3\t0.2\tperfect\n"
        )
        qrels_path = tmp_path / "q.tsv"
        qrels_path.write_text("w\tx1\t1\nw\tx2\t1\n")
        assert main(["eval", "--qrels", str(qrels_path), str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "mAP\tperfect\t1.000000" in out

    def test_eval_identical_runs_p_one(self, tmp_path, capsys):
        lines = (
            "w\tx1\t1\t0.9\tRID\n"
            "w\tx2\t2\t0.8\tRID\n"
            "v\tx1\t1\t0.7\tRID\n"
            "v\tx3\t2\t0.1\tRID\n"
        )
        r1 = tmp_path / "a.run"
        r2 = tmp_path / "b.run"
        r1.write_text(lines.replace("RID", "alpha"))
        r2.write_text(lines.replace("RID", "beta"))
        qrels_path = tmp_path / "q.tsv"
        qrels_path.write_text("w\tx1\t1\nv\tx3\t1\n")
        assert main(["eval", "--qrels", str(qrels_path), str(r1), str(r2)]) == 0
        out = capsys.readouterr().out
        assert "p\tAP\talpha\tbeta\t1\n" in out

    def test_eval_hand_built_run_matches_ap_oracle(self, tmp_path, capsys):
        run_path = tmp_path / "hand.run"
        run_path.write_text(
            "w\ta\t1\t0.9\thand\n"
            "w\tb\t2\t0.8\thand\n"
            "w\tc\t3\t0.7\thand\n"
            "w\td\t4\t0.6\thand\n"
        )
        qrels_path = tmp_path / "q.tsv"
        qrels_path.write_text("w\ta\t1\nw\tc\t1\n")
        assert main([
            "eval", "--qrels", str(qrels_path), str(run_path),
            "--out", str(tmp_path / "report.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert f"mAP\thand\t{(1.0 + 2 / 3) / 2:.6f}" in out
        assert (tmp_path / "report.txt").read_text() == out

    def test_eval_flags_tag_missing_from_qrels(self, tmp_path, capsys):
        run_path = tmp_path / "r.run"
        run_path.write_text("w\tx1\t1\t0.9\trun\n")
        qrels_path = tmp_path / "q.tsv"
        qrels_path.write_text("other\tx1\t1\n")
        assert main(["eval", "--qrels", str(qrels_path), str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "[unjudged]" in out


class TestCliNumpyState:
    def test_commands_leave_bufsize_and_error_handling_as_found(self, tmp_path, capsys):
        # the kernels cut numpy's ufunc buffer while they run; a library
        # caller's numpy settings must come back unchanged
        data, out = tmp_path / "data", tmp_path / "out"
        common = [
            "--tags", str(data / "tags.tsv"),
            "--features", f"{data / 'visa.tsv'},{data / 'visb.tsv'}", "--k", "5",
        ]
        runs = [str(out / f"{p}.run") for p in ("tagrel-visa", "early-rankmax-average")]
        commands = [
            ["synth", "--out", str(data), "--images", "60", "--tags", "3",
             "--features", "visa:2,visb:2", "--seed", "3"],
            ["score", *common, "--preset", "tagrel-visa", "--out", runs[0]],
            ["score", *common, "--preset", "early-rankmax-average", "--out", runs[1]],
            ["score", *common, "--preset", "late-minmax-average",
             "--estimators", "tagrel:visa,tagranking:visb", "--out", str(out / "kde.run")],
            ["learn", *common, "--qrels", str(data / "qrels.tsv"), "--out", str(out / "late")],
            ["learn", *common, "--qrels", str(data / "qrels.tsv"), "--scheme", "early",
             "--out", str(out / "early")],
            ["eval", "--qrels", str(data / "qrels.tsv"), *runs],
        ]
        old_size, old_err = np.setbufsize(4096), np.seterr(over="ignore")
        try:
            for argv in commands:
                state = (np.getbufsize(), np.geterr())
                assert main(argv) == 0, argv
                assert (np.getbufsize(), np.geterr()) == state, argv[0]
        finally:
            np.setbufsize(old_size)
            np.seterr(**old_err)


class TestCliMisc:
    def test_list_presets_default_features(self, capsys):
        assert main(["list-presets"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 19
        assert "tagrel-dsift" in lines
        assert "late-minmax-learning+" in lines

    def test_list_presets_custom_features(self, capsys):
        assert main(["list-presets", "--features", "fa,fb"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 17  # 12 + 2 + 3

    def test_list_presets_features_from_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("features = fa,fb\n")
        assert main(["list-presets", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in available_presets(("fa", "fb")))

    def test_list_presets_empty_feature_list_is_refused(self, capsys):
        assert main(["list-presets", "--features", ","]) == 2
        assert capsys.readouterr() == ("", "error: features must list at least one name\n")

    def test_config_file_supplies_flags_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("images = 30\ntags = 2\nfeatures = va:2\nseed = 4\n")
        out1 = tmp_path / "o1"
        assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
        c = load_collection(out1 / "tags.tsv", [out1 / "va.tsv"])
        assert len(c) == 30
        out2 = tmp_path / "o2"
        assert main(["synth", "--config", str(cfg), "--out", str(out2), "--images", "40"]) == 0
        c2 = load_collection(out2 / "tags.tsv", [out2 / "va.tsv"])
        assert len(c2) == 40

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("bogus = 1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) != 0

    @pytest.mark.parametrize("second", ["images = 20", "q-correct = 0.8"])
    def test_duplicate_config_key_rejected(self, tmp_path, capsys, second):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"# comment\nimages = 10\nq_correct = 0.9\n{second}\n")
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        key, first = ("images", 2) if second.startswith("images") else ("q_correct", 3)
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:4: duplicate config key {key!r} (first on line {first})\n"
        assert not out.exists()

    def test_missing_required_flags(self, capsys):
        assert main(["score"]) != 0
        assert main(["eval"]) != 0
        assert main(["learn"]) != 0

    @pytest.mark.parametrize(
        "config, tags_text, message",
        [
            ("preset = tagrel-visa\nk = abc\n", None, "{cfg}:2: k: must be an integer, got 'abc'"),
            ("# comment\nbogus = 1\n", None, "{cfg}:2: unknown config key 'bogus'"),
            ("", "a\tu\tsky\nb\tu\tsea\na\tu\tsun\n", "{tags}:3: duplicate image_id 'a'"),
        ],
        ids=["bad-value", "unknown-key", "duplicate-id"],
    )
    def test_malformed_input_names_file_and_line(self, tmp_path, capsys, config, tags_text, message):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(config)
        tags = tmp_path / "tags.tsv"
        tags.write_text(tags_text or "a\tu\tsky\nb\tu\tsea\n")
        feats = tmp_path / "visa.tsv"
        feats.write_text("#feature\tvisa\t1\na\t0.0\nb\t1.0\n")
        code = main([
            "score", "--config", str(cfg), "--tags", str(tags), "--features", str(feats),
            "--preset", "tagrel-visa", "--out", str(tmp_path / "r.run"),
        ])
        assert code == 2
        assert message.format(cfg=cfg, tags=tags) in capsys.readouterr().err


def test_hashtag_concept_is_scored_and_evaluated(tmp_path, capsys):
    # '#sky' loads as 'sky', so its run lines are records and not comments
    tags = tmp_path / "tags.tsv"
    tags.write_text("".join(f"x{i:02d}\tu{i % 3}\t{'#Sky' if i < 10 else 'sea'}\n" for i in range(30)))
    feats = tmp_path / "visa.tsv"
    feats.write_text("#feature\tvisa\t1\n" + "".join(f"x{i:02d}\t{i // 10}.{i}\n" for i in range(30)))
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("".join(f"sea\tx{i:02d}\t1\n" for i in range(10, 30)))
    run = tmp_path / "r.run"
    assert main([
        "score", "--tags", str(tags), "--features", str(feats), "--preset", "tagrel-visa",
        "--k", "5", "--out", str(run),
    ]) == 0
    assert sum(line.startswith("sky\t") for line in run.read_text().splitlines()) == 10
    capsys.readouterr()
    assert main(["eval", "--qrels", str(qrels), str(run)]) == 0
    report = capsys.readouterr().out
    assert re.search(r"^sky\t0\.000000\t0\.000000\t\[unjudged\]$", report, re.M), report
    assert re.search(r"^sea\t", report, re.M)


# the option strings each subcommand's --help lists; none may be added or dropped
COMMAND_FLAGS = {
    "synth": (
        "--cluster-spread --config --features --help --images --informativeness --out "
        "--q-correct --q-incorrect --seed --tags --users -h"
    ),
    "score": (
        "--calib-sample-size --concept-weights --config --estimators --features --help --k "
        "--kde-feature --kde-sample-cap --min-count --out --preset --query-tags --run-id "
        "--seed --tags --weights -h"
    ),
    "learn": (
        "--calib-sample-size --config --cutoff --delta0 --estimators --features --growth "
        "--help --k --kde-feature --kde-sample-cap --line-steps --max-sweeps --metric "
        "--min-count --min-pos --norm --out --pairs --per-concept --qrels --restarts "
        "--scheme --seed --tags --tol -h"
    ),
    "eval": "--config --cutoff --help --n-perm --out --qrels --seed -h",
    "list-presets": "--config --features --help -h",
}


class TestCliOptionTables:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_accepts_exactly_its_flags(self, capsys, command):
        import re

        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        flags = sorted(set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", text)))
        assert flags == COMMAND_FLAGS[command].split()
        assert ("[runs ...]" in text) == (command == "eval")

    def test_top_level_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{synth,score,learn,eval,list-presets}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, key, value, allowed",
        [
            ("learn", "scheme", "sideways", "early, late"),
            ("learn", "norm", "zscore", "minmax, rankmax"),
            ("synth", "informativeness", "some", "split, all"),
        ],
    )
    def test_bad_choice_in_config_names_file_and_line(
        self, tmp_path, capsys, command, key, value, allowed
    ):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"# comment\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: {key}: must be one of {allowed}; got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, allowed",
        [
            ("learn", "scheme", "early, late"),
            ("learn", "norm", "minmax, rankmax"),
            ("synth", "informativeness", "split, all"),
        ],
    )
    def test_bad_choice_flag_is_a_usage_error(self, tmp_path, capsys, command, key, allowed):
        out = tmp_path / "o"
        assert main([command, f"--{key}", "bogus", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be one of {allowed}; got 'bogus'\n"
        assert not out.exists()

    def test_every_numeric_key_is_ranged_or_listed(self):
        # a bare int or float converter accepts any number; these keys take
        # any: min_pos and min_count clamp at 1, derive_seed takes a
        # negative seed (synth's seed has a range)
        unranged = {
            ("score", "min_count"), ("score", "seed"),
            ("learn", "min_count"), ("learn", "min_pos"), ("learn", "seed"),
            ("eval", "seed"),
        }
        bare = {
            (command, key)
            for command, (_, _, options, _) in COMMANDS.items()
            for key, (convert, _) in (options or {}).items()
            if convert in (int, float)
        }
        assert bare == unranged

    def test_unsaveable_feature_name_refused(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("images = 20\ntags = 2\nfeatures = a\tb:2\n")
        out = tmp_path / "world"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot save feature 'a\\tb': its name holds a tab, CR or LF\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("score", "k", "0", "must be >= 1, got 0"),
            ("score", "kde_sample_cap", "-3", "must be >= 1, got -3"),
            ("score", "calib_sample_size", "0", "must be >= 1, got 0"),
            ("learn", "cutoff", "0", "must be >= 1, got 0"),
            ("learn", "line_steps", "0", "must be >= 1, got 0"),
            ("learn", "max_sweeps", "0", "must be >= 1, got 0"),
            ("learn", "restarts", "-1", "must be >= 1, got -1"),
            ("learn", "metric", "map", "must be one of ap, ndcg; got 'map'"),
            ("eval", "cutoff", "0", "must be >= 1, got 0"),
            ("learn", "pairs", "0", "must be >= 1, got 0"),
            ("eval", "n_perm", "-5", "must be >= 1, got -5"),
            ("learn", "delta0", "0", "must be finite and > 0, got 0.0"),
            ("learn", "delta0", "inf", "must be finite and > 0, got inf"),
            ("learn", "tol", "nan", "must be finite and > 0, got nan"),
            ("learn", "tol", "-1e-6", "must be finite and > 0, got -1e-06"),
            ("learn", "growth", "1", "must be finite and > 1, got 1.0"),
            ("learn", "growth", "-inf", "must be finite and > 1, got -inf"),
        ],
    )
    def test_config_value_out_of_range_names_file_and_line(
        self, tmp_path, capsys, command, key, value, message
    ):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"# comment\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {key}: {message}\n"
        assert not out.exists()


# (command, key, bad value, flags under which the run would not use the
# key, the converter's message)
RANGED_CASES = [
    ("synth", "images", "0", [], "must be >= 1, got 0"),
    ("synth", "tags", "-2", [], "must be >= 1, got -2"),
    ("synth", "users", "0", [], "must be >= 1, got 0"),
    ("synth", "seed", "-1", [], "must be >= 0, got -1"),
    ("synth", "q_correct", "2", [], "must be in [0, 1], got 2.0"),
    ("synth", "q_incorrect", "-0.5", [], "must be in [0, 1], got -0.5"),
    ("synth", "cluster_spread", "nan", [], "must be finite and > 0, got nan"),
    ("synth", "informativeness", "some", [], "must be one of split, all; got 'some'"),
    ("synth", "features", "visa:0", [], "spec 'visa:0': must be >= 1, got 0"),
    ("score", "k", "0", [], "must be >= 1, got 0"),
    ("score", "estimators", "tagrel:visb, bogus", [], "unknown estimator spec 'bogus'"),
    ("score", "run_id", "a\tb", [], "must not hold a tab, CR or LF, got 'a\\tb'"),
    ("score", "kde_sample_cap", "-3", [], "must be >= 1, got -3"),
    ("score", "calib_sample_size", "0", [], "must be >= 1, got 0"),
    ("learn", "k", "0", [], "must be >= 1, got 0"),
    ("learn", "kde_sample_cap", "0", [], "must be >= 1, got 0"),
    ("learn", "calib_sample_size", "0", ["--scheme", "late"], "must be >= 1, got 0"),
    ("learn", "estimators", "bogus", ["--scheme", "early"], "unknown estimator spec 'bogus'"),
    ("learn", "scheme", "sideways", [], "must be one of early, late; got 'sideways'"),
    ("learn", "norm", "zscore", [], "must be one of minmax, rankmax; got 'zscore'"),
    ("learn", "metric", "map", ["--scheme", "early"], "must be one of ap, ndcg; got 'map'"),
    ("learn", "cutoff", "0", ["--scheme", "early"], "must be >= 1, got 0"),
    ("learn", "pairs", "0", ["--scheme", "late"], "must be >= 1, got 0"),
    ("learn", "delta0", "0", ["--scheme", "early"], "must be finite and > 0, got 0.0"),
    ("learn", "growth", "1", ["--scheme", "early"], "must be finite and > 1, got 1.0"),
    ("learn", "line_steps", "0", ["--scheme", "early"], "must be >= 1, got 0"),
    ("learn", "tol", "nan", ["--scheme", "early"], "must be finite and > 0, got nan"),
    ("learn", "max_sweeps", "0", ["--scheme", "early"], "must be >= 1, got 0"),
    ("learn", "restarts", "-1", ["--scheme", "early"], "must be >= 1, got -1"),
    ("eval", "cutoff", "0", [], "must be >= 1, got 0"),
    ("eval", "n_perm", "0", [], "must be >= 1, got 0"),
    ("list-presets", "features", ",", [], "must list at least one name"),
]
# values argparse would take for an option string after the flag, values
# that are not numbers at all, for ranged and unranged keys, and malformed
# lists of feature or estimator specs
VALUE_CASES = [
    ("learn", "tol", "-1e-6", ["--scheme", "early"], "must be finite and > 0, got -1e-06"),
    ("learn", "tol", "-inf", ["--scheme", "early"], "must be finite and > 0, got -inf"),
    ("learn", "delta0", "-1.", ["--scheme", "early"], "must be finite and > 0, got -1.0"),
    ("synth", "cluster_spread", "-1E-3", [], "must be finite and > 0, got -0.001"),
    ("synth", "images", "abc", [], "must be an integer, got 'abc'"),
    ("synth", "seed", "1.5", [], "must be an integer, got '1.5'"),
    ("synth", "q_correct", "half", [], "must be a number, got 'half'"),
    ("learn", "growth", "2x", ["--scheme", "early"], "must be a number, got '2x'"),
    ("score", "min_count", "abc", [], "must be an integer, got 'abc'"),
    ("score", "seed", "-1e3", [], "must be an integer, got '-1e3'"),
    ("learn", "min_pos", "two", [], "must be an integer, got 'two'"),
    ("learn", "seed", "x", [], "must be an integer, got 'x'"),
    ("eval", "seed", "1e9", [], "must be an integer, got '1e9'"),
    ("synth", "features", "visa:x", [], "spec 'visa:x': must be an integer, got 'x'"),
    ("synth", "features", "visa", [], "spec 'visa': must be name:dim"),
    ("synth", "features", ":2", [], "spec ':2': must be name:dim"),
    ("synth", "features", ",", [], "must list at least one name:dim"),
    ("synth", "features", "a:2,a:3", [], "spec 'a:3': name 'a' repeats"),
    (
        "synth", "features", "../esc:2,a/b:2", [],
        "spec '../esc:2': name '../esc' is not a plain file name",
    ),
    ("synth", "features", "va:2,a/b:2", [], "spec 'a/b:2': name 'a/b' is not a plain file name"),
    ("synth", "features", "..:2", [], "spec '..:2': name '..' is not a plain file name"),
    ("synth", "features", ".:2", [], "spec '.:2': name '.' is not a plain file name"),
    ("learn", "estimators", "tagrel:visa,tagposition,bogus", [], "unknown estimator spec 'bogus'"),
]


class TestCliNumericFlags:
    """A flag and a config line take one path: the key's converter refuses
    a bad value from either before any file is read (exit 2), also where
    the run would not use the key."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("data")
        common = [
            "--tags", str(data / "tags.tsv"),
            "--features", f"{data / 'visa.tsv'},{data / 'visb.tsv'}",
        ]
        assert main([
            "synth", "--out", str(data), "--images", "40", "--tags", "3",
            "--features", "visa:2,visb:2", "--seed", "3",
        ]) == 0
        run = data / "one.run"  # one run: eval makes no randomization test, reads no n_perm
        assert main(["score", *common, "--k", "5", "--preset", "tagrel-visa", "--out", str(run)]) == 0
        return {
            "synth": [],
            "score": [*common, "--preset", "tagrel-visa"],
            "learn": [*common, "--qrels", str(data / "qrels.tsv")],
            "eval": ["--qrels", str(data / "qrels.tsv"), str(run)],
            "list-presets": [],
        }

    @pytest.mark.parametrize(
        "command, key, value, skip, message",
        RANGED_CASES + VALUE_CASES,
        ids=[f"{c[0]}-{c[1]}" for c in RANGED_CASES] + [f"{c[0]}-{c[1]}={c[2]}" for c in VALUE_CASES],
    )
    def test_flag_and_config_line_refused_alike(
        self, world, tmp_path, capsys, command, key, value, skip, message
    ):
        capsys.readouterr()
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"# comment\n{key} = {value}\n")
        out = tmp_path / "o"
        argv = [command, *world[command], *skip]
        if "out" in COMMANDS[command][2]:
            argv += ["--out", str(out)]
        if key != "k" and command in ("score", "learn"):
            argv += ["--k", "5"]
        flag = "--" + key.replace("_", "-")
        for given in ([flag, value], [f"{flag}={value}"]):
            assert main([*argv, *given]) == 2
            assert capsys.readouterr().err == f"error: {key} {message}\n"
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {key}: {message}\n"
        assert not out.exists()

    def test_every_numeric_key_names_a_value_that_is_not_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        checked = 0
        for command, (_, _, options, _) in COMMANDS.items():
            for key, (_, default) in (options or {}).items():
                if type(default) not in (int, float):  # bool, str, list, None, REQUIRED
                    continue
                message = f"must be {'an integer' if type(default) is int else 'a number'}, got 'n/a'"
                assert main([command, f"--{key.replace('_', '-')}", "n/a"]) == 2
                assert capsys.readouterr().err == f"error: {key} {message}\n"
                cfg.write_text(f"{key} = n/a\n")
                assert main([command, "--config", str(cfg)]) == 2
                assert capsys.readouterr().err == f"error: {cfg}:1: {key}: {message}\n"
                checked += 1
        assert checked == 29

    def test_cases_cover_every_ranged_key(self):
        ranged = {
            (command, key)
            for command, (_, _, options, _) in COMMANDS.items()
            for key, (convert, _) in (options or {}).items()
            if convert not in (str, int, _csv, _bool)
        }
        assert {(c[0], c[1]) for c in RANGED_CASES} == ranged

    @pytest.mark.parametrize(
        "command, key",
        [
            ("synth", "out"),
            ("score", "tags"), ("score", "features"), ("score", "out"), ("score", "preset"),
            ("learn", "tags"), ("learn", "features"), ("learn", "out"), ("learn", "qrels"),
            ("eval", "qrels"),
        ],
    )
    def test_missing_or_empty_required_key_is_named(self, tmp_path, capsys, command, key):
        required = {
            k for k, (_, default) in COMMANDS[command][2].items() if default is REQUIRED
        }
        argv = [command, "one.run"] if command == "eval" else [command]
        for other in sorted(required - {key}):
            argv += [f"--{other}", str(tmp_path / other)]
        for given in ([], [f"--{key}", ""]):
            assert main([*argv, *given]) == 2
            assert capsys.readouterr().err == f"error: {command} requires --{key}\n"
        assert list(tmp_path.iterdir()) == []


class TestCliLearnEarlyNorm:
    """Early weights are fit on MinMax distances, so early RankMax is refused."""

    MESSAGE = (
        "error: learn --scheme early fits its weights on MinMax distances, for every "
        "early preset; --norm rankmax applies to --scheme late only\n"
    )

    def world(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--images", "40", "--tags", "3",
            "--features", "visa:2,visb:2", "--seed", "3",
        ]) == 0
        return [
            "--tags", str(data / "tags.tsv"),
            "--features", f"{data / 'visa.tsv'},{data / 'visb.tsv'}",
            "--qrels", str(data / "qrels.tsv"), "--k", "5", "--pairs", "20",
        ]

    def test_flag_is_refused_and_nothing_written(self, tmp_path, capsys):
        files = self.world(tmp_path)
        capsys.readouterr()
        out = tmp_path / "learned"
        argv = ["learn", *files, "--scheme", "early", "--norm", "rankmax", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()

    def test_config_file_is_refused_and_nothing_written(self, tmp_path, capsys):
        files = self.world(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "conf.txt"
        cfg.write_text("scheme = early\nnorm = rankmax\n")
        out = tmp_path / "learned"
        assert main(["learn", "--config", str(cfg), *files, "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()

    def test_minmax_is_still_learned(self, tmp_path):
        files = self.world(tmp_path)
        out = tmp_path / "learned"
        assert main(["learn", *files, "--scheme", "early", "--norm", "minmax", "--out", str(out)]) == 0
        assert (out / "weights-global.tsv").exists()


class TestCliWeightNames:
    """learn refuses, before writing anything, a weight name that its weight
    file would read back as a comment."""

    def test_hash_led_feature_name_is_refused(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--images", "60", "--tags", "3",
            "--features", "#x:2,visb:2", "--seed", "5",
        ]) == 0
        files = [
            "--tags", str(data / "tags.tsv"),
            "--features", f"{data / '#x.tsv'},{data / 'visb.tsv'}", "--k", "5",
        ]
        learn = ["learn", *files, "--qrels", str(data / "qrels.tsv"), "--pairs", "50"]
        capsys.readouterr()
        out = tmp_path / "early"
        assert main([*learn, "--scheme", "early", "--per-concept", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write weight '#x': it starts with '#' or holds a tab, CR or LF\n"
        )
        assert not out.exists()
        # late weights are named by estimator spec, 'tagrel:#x', which reads back
        out = tmp_path / "late"
        assert main([*learn, "--scheme", "late", "--out", str(out)]) == 0
        weights = out / "weights-global.tsv"
        assert read_weights(weights).names == ("tagrel:#x", "tagrel:visb")
        run_path = tmp_path / "late.run"
        assert main([
            "score", *files, "--preset", "late-minmax-learning", "--weights", str(weights),
            "--out", str(run_path),
        ]) == 0


class TestChecksBeforeNeighborPasses:
    """Bad presets and estimator specs are refused before any vote pass."""

    @pytest.fixture
    def vote_calls(self, monkeypatch):
        import tagfusion.presets as presets

        calls = []
        real = presets.vote_tables

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(presets, "vote_tables", spy)
        return calls

    @pytest.fixture
    def world(self, tmp_path):
        out = tmp_path / "data"
        assert main([
            "synth", "--out", str(out), "--images", "60", "--tags", "3",
            "--features", "visa:2,visb:2", "--seed", "5",
        ]) == 0
        return ["--tags", str(out / "tags.tsv"), "--features", f"{out / 'visa.tsv'},{out / 'visb.tsv'}"]

    @pytest.mark.parametrize(
        "preset, flags, message",
        [
            (
                "late-minmax-average", ["--estimators", "tagrel:visa,bogus"],
                "estimators unknown estimator spec 'bogus'",
            ),
            (
                "late-rankmax-average", ["--estimators", "tagrel:visa,tagrel:nofeat"],
                "estimator spec 'tagrel:nofeat' names unknown feature 'nofeat'",
            ),
            (
                "late-minmax-average", ["--estimators", "tagrel:visa,tagranking:nofeat"],
                "estimator spec 'tagranking:nofeat' names unknown feature 'nofeat'",
            ),
            (
                "early-minmax-magic", [],
                "unknown preset 'early-minmax-magic'; choose one of "
                + str(available_presets(("visa", "visb"))),
            ),
            ("tagranking", ["--kde-feature", "nofeat"], "unknown feature 'nofeat'"),
        ],
        ids=["bogus-spec", "tagrel-unknown-feature", "kde-unknown-feature", "unknown-preset",
             "kde-feature-key-error"],
    )
    def test_cli_exits_2_before_any_vote_pass(
        self, tmp_path, capsys, vote_calls, world, preset, flags, message
    ):
        run_path = tmp_path / "r.run"
        code = main(["score", *world, "--preset", preset, "--k", "5", "--out", str(run_path), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert vote_calls == []
        assert not run_path.exists()

    def test_score_preset_rejects_unknown_preset_before_any_vote_pass(self, vote_calls):
        c, _ = small_world(seed=4)
        settings = ScoreSettings(features=("visa", "visb"), k=5)
        for preset in ("late-minmax-magic", "tagrel-nofeat", "early-minmax"):
            with pytest.raises(ValueError, match=f"^unknown preset '{preset}'; choose one of"):
                score_preset(c, preset, settings)
        assert vote_calls == []

    def test_settings_reject_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown estimator spec 'bogus'"):
            ScoreSettings(features=("visa",), estimators=("tagrel:visa", "bogus"))


class TestCliKdeOnSmallTags:
    """tagranking on tags that label one or two images."""

    def files(self, tmp_path):
        rows = [  # (id, tags, visa)
            ("x1", "many pair", "0.0,0.0"),
            ("x2", "many pair", "0.5,0.1"),
            ("x3", "many", "0.2,0.9"),
            ("x4", "many", "0.7,0.4"),
            ("x5", "solo", "3.0,1.0"),
            ("x6", "", "1.0,1.0"),
        ]
        tags = tmp_path / "tags.tsv"
        tags.write_text("".join(f"{i}\tu\t{t}\n" for i, t, _ in rows))
        feats = tmp_path / "visa.tsv"
        feats.write_text("#feature\tvisa\t2\n" + "".join(f"{i}\t{v}\n" for i, _, v in rows))
        return str(tags), str(feats)

    def test_one_image_tag_scores_zero(self, tmp_path):
        tags, feats = self.files(tmp_path)
        run_path = tmp_path / "kde.run"
        assert main([
            "score", "--tags", tags, "--features", feats, "--preset", "tagranking",
            "--out", str(run_path),
        ]) == 0
        run = read_run(run_path)
        assert run.rankings["solo"] == (("x5", 0.0),)
        assert len(run.rankings["many"]) == 4

    def test_constant_kde_table_fuses_as_a_constant_shift(self, tmp_path):
        tags, feats = self.files(tmp_path)
        # on a two-image tag both candidates get the same kernel value
        fused, single = tmp_path / "fused.run", tmp_path / "single.run"
        for preset, extra, out in (
            ("late-minmax-average", ["--estimators", "tagrel:visa,tagranking:visa"], fused),
            ("tagrel-visa", [], single),
        ):
            assert main([
                "score", "--tags", tags, "--features", feats, "--preset", preset,
                "--query-tags", "pair", "--k", "2", "--out", str(out), *extra,
            ]) == 0
        assert read_run(fused).ranking("pair") == read_run(single).ranking("pair")


class TestCliOverflowingFeature:
    """A feature whose L1 distances overflow is refused when it is loaded."""

    def files(self, tmp_path, values):
        rng = np.random.default_rng(0)
        ids = [f"x{i:02d}" for i in range(40)]
        tags = tmp_path / "tags.tsv"
        tags.write_text("".join(f"{x}\tu\t{'w' if i % 3 else 'v'}\n" for i, x in enumerate(ids)))
        paths = []
        for name, comps in (("fa", values), ("fb", [0.0, 0.5, 1.0])):
            path = tmp_path / f"{name}.tsv"
            rows = rng.choice(comps, size=(len(ids), 2))
            path.write_text(f"#feature\t{name}\t2\n" + "".join(
                f"{x}\t{','.join(repr(float(v)) for v in row)}\n" for x, row in zip(ids, rows)
            ))
            paths.append(str(path))
        return str(tags), ",".join(paths)

    @pytest.mark.parametrize("preset", ["early-minmax-average", "tagrel-fa"])
    def test_overflowing_feature_exits_2_naming_it(self, tmp_path, capsys, preset):
        tags, feats = self.files(tmp_path, [-1.5e308, -1.0, 0.0, 2.0, 1.5e308])
        out = tmp_path / "r.run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code = main([
                "score", "--tags", tags, "--features", feats, "--preset", preset,
                "--k", "5", "--out", str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'fa.tsv'}: feature 'fa' has L1 distances that overflow" in err
        assert not out.exists()

    def test_large_finite_feature_loads_and_scores(self, tmp_path):
        tags, feats = self.files(tmp_path, [-4e307, 4e307])  # widest L1: 1.6e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "score", "--tags", tags, "--features", feats, "--preset", "tagrel-fa",
                "--k", "5", "--out", str(tmp_path / "r.run"),
            ]) == 0
        assert read_run(tmp_path / "r.run").run_id == "tagrel-fa"


class TestCliLearnBatchedObjective:
    def test_learn_files_equal_those_of_the_scalar_objective(self, tmp_path, monkeypatch):
        world = tmp_path / "world"
        assert main([
            "synth", "--out", str(world), "--images", "150", "--tags", "5",
            "--features", "visa:2,visb:2", "--seed", "3",
        ]) == 0
        args = [
            "learn", "--tags", str(world / "tags.tsv"),
            "--features", f"{world / 'visa.tsv'},{world / 'visb.tsv'}",
            "--qrels", str(world / "qrels.tsv"), "--scheme", "late", "--k", "10",
            "--per-concept", "--norm", "rankmax", "--metric", "ndcg", "--cutoff", "20",
        ]
        assert main(args + ["--out", str(tmp_path / "batched")]) == 0
        monkeypatch.setattr(learning, "_mean_metric", mean_metric_rows)
        assert main(args + ["--out", str(tmp_path / "scalar")]) == 0
        for name in ("weights-global.tsv", "weights-concepts.tsv", "learn.log"):
            batched = (tmp_path / "batched" / name).read_bytes()
            assert batched == (tmp_path / "scalar" / name).read_bytes()
        assert len((tmp_path / "batched" / "learn.log").read_text().splitlines()) > 5


# sha256 of the `learn --scheme early` files on `early_world`, recorded
# before training pairs became label-matrix rows; "-" where no file is written
EARLY_LEARN_PINNED = {
    "global": {
        "weights-global.tsv": "8880e9b0ea57257b3bb4a2594742395e767e00c77cb9fb0c7f8e09123a82dfc4",
        "weights-concepts.tsv": "-",
        "learn.log": "ddb88cfc9984e92763541a558616c87954174101fd80b6b6f6cdeaa3bc175c25",
    },
    "per-concept": {
        "weights-global.tsv": "8880e9b0ea57257b3bb4a2594742395e767e00c77cb9fb0c7f8e09123a82dfc4",
        "weights-concepts.tsv": "38cbc4806102ab94d02a265545fb0be3648233a0f2829d47a414aa4bc1543f7e",
        "learn.log": "ddb88cfc9984e92763541a558616c87954174101fd80b6b6f6cdeaa3bc175c25",
    },
}


class TestCliLearnEarlyPinned:
    def early_world(self, tmp_path):
        """A seeded synth world whose qrels also hold images judged only 0,
        a concept with one relevant image, one judged only 0 and one whose
        relevant images are missing from the collection."""
        world = tmp_path / "world"
        assert main([
            "synth", "--out", str(world), "--images", "200", "--tags", "6",
            "--features", "visa:3,visb:3", "--seed", "29",
        ]) == 0
        q = read_qrels(world / "qrels.tsv")
        for tag in q.tags():
            for image_id in sorted(q.relevant(tag))[:4]:  # now judged only 0
                q.add(tag, image_id, 0)
        q.add("solo", "img000007", 1)
        for image_id in ("img000011", "img000012", "img000013"):
            q.add("solo", image_id, 0)
            q.add("none", image_id, 0)
        q.add("ghost", "nope000001", 1)
        q.add("ghost", "nope000002", 1)
        write_qrels(world / "qrels.tsv", q)
        return [
            "learn", "--tags", str(world / "tags.tsv"),
            "--features", f"{world / 'visa.tsv'},{world / 'visb.tsv'}",
            "--qrels", str(world / "qrels.tsv"), "--scheme", "early",
            "--pairs", "300", "--seed", "13",
        ]

    @pytest.mark.parametrize("mode", sorted(EARLY_LEARN_PINNED))
    def test_learn_files_match_pinned_hashes(self, tmp_path, mode):
        import hashlib

        args = self.early_world(tmp_path)
        out = tmp_path / mode
        per_concept = ["--per-concept"] if mode == "per-concept" else []
        assert main(args + per_concept + ["--out", str(out)]) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).exists() else "-"
            for name in EARLY_LEARN_PINNED[mode]
        }
        assert got == EARLY_LEARN_PINNED[mode]


# sha256 of every `score` preset's run file on the world of
# `pinned_run_hashes`, and of the `learn --per-concept` files its learning
# presets read, recorded before neighbor queries became collection rows
SCORE_PINNED = {
    "learn-late-minmax/weights-global.tsv": "4ac0bf6e0d79ce164472143803715f6758f6ce7adca356240789d9462eb2a50b",
    "learn-late-minmax/weights-concepts.tsv": "d537e2b57ec2699ebbf540ad83612b920da1bd16f217a5357db995482d646c6e",
    "learn-late-minmax/learn.log": "5d3efd58a91e54582bfcb82c0a4e83055d3c75d608f04ca592f56101386971f4",
    "learn-late-rankmax/weights-global.tsv": "4ac0bf6e0d79ce164472143803715f6758f6ce7adca356240789d9462eb2a50b",
    "learn-late-rankmax/weights-concepts.tsv": "3a3c88fef402f985cdc8eba390feec615410bbc15666cbe57d5c5bc392f964f5",
    "learn-late-rankmax/learn.log": "b815631e914370537f766b0281d76bc6df4374c7fa449fa2580dd17a759ad54a",
    "learn-early-minmax/weights-global.tsv": "3cb92361f01fbddb859716ab581eb6e8d164e133857d18cbbb9442e5c9117794",
    "learn-early-minmax/weights-concepts.tsv": "412fcf115acd4037a3f14d14e90e44c17a1c766ac9dd0198de20d5be1fe94d6f",
    "learn-early-minmax/learn.log": "ac5681ebf07e38222e2cb5657fab4e5d16ee95bcda0ee0e3e7318ea40107d653",
    "early-minmax-average": "3e5c3597c306346f346e484206dc3aca540647d59a97cb24d6c1702d768a94c5",
    "early-minmax-learning": "51cfa11589d031161fa5bb1bf6cde7a1650c58bba3e7c3983e31307ee712d11e",
    "early-minmax-learning+": "c41e0a5d7fab84048112bee68ef6a776e0f62f45084c35b68e4a1f950ac78487",
    "early-rankmax-average": "1a5df3dfb09caece7412a739d5c83a5396d78462f1d9d343307898467abbc1a1",
    "early-rankmax-learning": "5f47a7a3c77f4641122655dc08fcaf9e9fe5497a7723af47fc454a57bf0d589b",
    "early-rankmax-learning+": "a2931d31d7d05ce9607dfb4221fc5a45917f1f41f4ef5f62913353cc9b8bf6c9",
    "late-minmax-average": "f200cbe44f55d81a32ae60ca2fb33337a61258c28a7ab728b4c0265fa6810f01",
    "late-minmax-learning": "223431a84bfb1ed9822dfc5161ec4fd22157d90820b92c814302cfb72df86153",
    "late-minmax-learning+": "82ff5c0e9a901f82efa206130ebd45eb8f51b9cf06b5432fd55b31beed78e233",
    "late-rankmax-average": "44977702a2101d59bdc343ddc622ccfe317841a8fcb837541ee56ac01715b7ae",
    "late-rankmax-learning": "dd52f00604f7b62bb2cd62c49cb4aafee1cd48e988f0025ac8840e7c1b72c833",
    "late-rankmax-learning+": "b95a3a204e1125f852b4b5ee49b5eecf15d43e136198b58d79ee613b646cddc4",
    "tagrel-visa": "5373f911a0476bde372f499fd290113d3762f1ea5058e62e26800cd211114ede",
    "tagrel-visb": "778fa860afb997186a1ddeee11d2fdf0170c4c03d299d23f3ebaae55422f66e1",
    "tagposition": "7498e65f966e9887280628e0d19950783afb58ddd2fcedcb83787d8fc1ab9a9f",
    "semanticfield": "4328d235da501bf6beee2afb58a7000efd1e3ad4edf1b43a7fb2188225c6c1a6",
    "tagranking": "d85c56611d22f2ad6e365740fa58a2eb391b305ec495e9dd415288fad5fe0932",
}


class TestCliScorePinned:
    """Run bytes of all presets over visa,visb, with a one-image tag (empty
    KDE support), a two-image tag and a KDE sample cap below most tags'
    support sizes."""

    @pytest.fixture(scope="class")
    def hashes(self, tmp_path_factory):
        return pinned_run_hashes(tmp_path_factory.mktemp("pinned"))

    def test_every_preset_and_learned_file_is_pinned(self, hashes):
        assert sorted(hashes) == sorted(SCORE_PINNED)

    @pytest.mark.parametrize("name", sorted(SCORE_PINNED))
    def test_file_matches_pinned_hash(self, hashes, name):
        assert hashes[name] == SCORE_PINNED[name]


def pinned_run_hashes(tmp):
    """sha256 of each learned file and preset run on the pinned world under `tmp`."""
    import hashlib

    flags = ["--k", "15", "--kde-sample-cap", "20", "--seed", "5"]
    world = tmp / "world"
    assert main([
        "synth", "--out", str(world), "--images", "150", "--tags", "6",
        "--features", "visa:3,visb:3", "--seed", "23",
    ]) == 0
    extra = {"img000003": " pair", "img000004": " pair", "img000005": " solo"}
    lines = (world / "tags.tsv").read_text().splitlines()
    (world / "tags.tsv").write_text(
        "".join(line + extra.get(line.split("\t")[0], "") + "\n" for line in lines)
    )
    data = [
        "--tags", str(world / "tags.tsv"),
        "--features", f"{world / 'visa.tsv'},{world / 'visb.tsv'}",
    ]
    digest = {}
    for scheme, norm in (("late", "minmax"), ("late", "rankmax"), ("early", "minmax")):
        out = tmp / f"learn-{scheme}-{norm}"
        assert main([
            "learn", *data, "--qrels", str(world / "qrels.tsv"), "--scheme", scheme,
            "--norm", norm, "--per-concept", "--pairs", "300", *flags,
            "--out", str(out),
        ]) == 0
        for name in ("weights-global.tsv", "weights-concepts.tsv", "learn.log"):
            digest[f"{out.name}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    for preset in available_presets(("visa", "visb")):
        weights = []
        if preset.endswith(("-learning", "-learning+")):
            scheme, norm = preset.split("-")[:2]
            learned = tmp / f"learn-{scheme}-{norm if scheme == 'late' else 'minmax'}"
            weights = [
                "--weights", str(learned / "weights-global.tsv"),
                "--concept-weights", str(learned / "weights-concepts.tsv"),
            ]
        run_path = tmp / f"{preset}.run"
        assert main([
            "score", *data, "--preset", preset, *weights, *flags,
            "--out", str(run_path),
        ]) == 0
        digest[preset] = hashlib.sha256(run_path.read_bytes()).hexdigest()
    return digest
