import pytest

from tagfusion.cli import main
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
            assert dict(run.rankings[tag]) == expected.scores

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

    def test_missing_required_flags(self, capsys):
        assert main(["score"]) != 0
        assert main(["eval"]) != 0
        assert main(["learn"]) != 0

    @pytest.mark.parametrize(
        "config, tags_text, message",
        [
            ("preset = tagrel-visa\nk = abc\n", None, "{cfg}:2: k: invalid literal for int()"),
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
