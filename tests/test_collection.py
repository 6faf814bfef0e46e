import math
import re

import numpy as np
import pytest

from tagfusion.collection import (
    Collection,
    CollectionError,
    ImageRecord,
    SyntheticConfig,
    SyntheticFeature,
    generate_collection,
    images_with_tag,
    load_collection,
    normalize_tag,
    save_collection,
    synthetic_tag_names,
    tag_prior,
)

from conftest import make_collection


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def small_files(tmp_path):
    tags = write(
        tmp_path / "tags.tsv",
        "x1\tu1\tsky sea\n"
        "x2\tu2\tsky\n"
        "x3\tu1\tboat\n",
    )
    feat = write(
        tmp_path / "f.tsv",
        "#feature\tf\t2\n"
        "x1\t0.0,1.0\n"
        "x2\t1.5,2.5\n"
        "x3\t-1.0,0.25\n",
    )
    return tags, feat


class TestLoad:
    def test_smallest_well_formed_input(self, tmp_path):
        tags, feat = small_files(tmp_path)
        c = load_collection(tags, [feat])
        assert len(c) == 3
        assert c.tag_index == {
            "sky": frozenset({"x1", "x2"}),
            "sea": frozenset({"x1"}),
            "boat": frozenset({"x3"}),
        }
        assert c.feature("f").dim == 2
        assert np.array_equal(c.vector("f", "x2"), [1.5, 2.5])

    def test_missing_feature_row_names_the_id(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(
            tmp_path / "g.tsv",
            "#feature\tg\t1\nx1\t0.5\nx3\t0.25\n",
        )
        with pytest.raises(CollectionError, match="x2"):
            load_collection(tags, [feat])

    def test_duplicate_tag_on_image_is_an_error(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\tsky sky\n")
        with pytest.raises(CollectionError, match="x1"):
            load_collection(tags, [])

    def test_dimension_mismatch_reports_file_and_line(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(
            tmp_path / "g.tsv",
            "#feature\tg\t2\nx1\t0.5,1.0\nx2\t0.5\nx3\t1.0,2.0\n",
        )
        with pytest.raises(CollectionError, match=r"g\.tsv:3.*x2"):
            load_collection(tags, [feat])

    def test_non_finite_component_is_an_error(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(
            tmp_path / "g.tsv",
            "#feature\tg\t1\nx1\t0.5\nx2\tnan\nx3\t1.0\n",
        )
        with pytest.raises(CollectionError, match="non-finite"):
            load_collection(tags, [feat])

    def test_earliest_bad_feature_line_is_reported(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(
            tmp_path / "g.tsv",
            "#feature\tg\t1\nx1\t0.5\nx2\tinf\nx1\t1.0\nx3\t1.0\n",
        )
        with pytest.raises(CollectionError, match=r"g\.tsv:3: non-finite component for image 'x2'"):
            load_collection(tags, [feat])

    def test_feature_whose_l1_distances_overflow_is_an_error(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(
            tmp_path / "g.tsv",
            "#feature\tg\t2\nx1\t1e308,0.0\nx2\t-1e308,0.0\nx3\t0.0,0.0\n",
        )
        with pytest.raises(CollectionError, match=r"g\.tsv: feature 'g' has L1 distances that overflow"):
            load_collection(tags, [feat])

    def test_large_finite_feature_loads(self, tmp_path):
        tags, _ = small_files(tmp_path)
        feat = write(  # widest L1 distance 1.6e308, below the float maximum
            tmp_path / "g.tsv",
            "#feature\tg\t2\nx1\t4e+307,-4e+307\nx2\t-4e+307,4e+307\nx3\t0.0,0.0\n",
        )
        c = load_collection(tags, [feat])
        assert np.array_equal(c.vector("g", "x2"), [-4e307, 4e307])

    def test_duplicate_image_id_is_an_error(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\tsky\nx1\tu2\tsea\n")
        with pytest.raises(CollectionError, match="duplicate image_id"):
            load_collection(tags, [])

    def test_feature_row_for_unknown_image_is_an_error(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\tsky\n")
        feat = write(tmp_path / "g.tsv", "#feature\tg\t1\nx1\t0.5\nx9\t1.0\n")
        with pytest.raises(CollectionError, match="x9"):
            load_collection(tags, [feat])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "# header\n\nx1\tu1\tsky\n")
        c = load_collection(tags, [])
        assert len(c) == 1

    def test_tags_are_lowercased_and_ascii_folded(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\tSky CAFÉ\n")
        c = load_collection(tags, [])
        assert c.images[0].tags == ("sky", "cafe")

    def test_empty_tag_list_allowed(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\t\n")
        c = load_collection(tags, [])
        assert c.images[0].tags == ()

    def test_hashtags_load_as_their_word(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\t#Sky sea\nx2\tu2\t##sea c#\n")
        c = load_collection(tags, [])
        assert [r.tags for r in c.images] == [("sky", "sea"), ("sea", "c#")]

    def test_tag_of_only_hashes_is_refused(self, tmp_path):
        tags = write(tmp_path / "tags.tsv", "x1\tu1\tsky\nx2\tu2\tsea ##\n")
        with pytest.raises(
            CollectionError, match=f"^{re.escape(str(tags))}:2: tag folds to empty token on image 'x2'$"
        ):
            load_collection(tags, [])


def test_normalize_tag():
    assert normalize_tag("Sky") == "sky"
    assert normalize_tag("CAFÉ") == "cafe"
    assert normalize_tag("#Sky") == "sky"
    assert normalize_tag("# #sky ") == normalize_tag("sky")
    assert normalize_tag("c#") == "c#"
    assert normalize_tag("#") == ""


class TestIndexOps:
    def test_images_with_tag_definition(self):
        c = make_collection([("x1", "u", ["w"]), ("x2", "u", []), ("x3", "u", ["w"])])
        assert images_with_tag(c, "w") == {"x1", "x3"}

    def test_unseen_tag_gives_empty_set(self):
        c = make_collection([("x1", "u", ["w"])])
        assert images_with_tag(c, "nope") == frozenset()

    def test_ubiquitous_tag_gives_all_ids(self):
        c = make_collection([("x1", "u", ["w"]), ("x2", "u", ["w"])])
        assert images_with_tag(c, "w") == {"x1", "x2"}

    def test_tag_prior_hand_value(self, prior_collection):
        assert tag_prior(prior_collection, "w") == pytest.approx(0.1, abs=1e-12)

    def test_tag_prior_unseen_tag(self, prior_collection):
        assert tag_prior(prior_collection, "zzz") == 0.0

    def test_tag_prior_ubiquitous(self):
        c = make_collection([("x1", "u", ["w"]), ("x2", "u", ["w"])])
        assert tag_prior(c, "w") == 1.0

    def test_tag_prior_empty_collection(self):
        c = Collection([], {})
        with pytest.raises(CollectionError):
            tag_prior(c, "w")

    def test_tag_index_rebuild_round_trip(self):
        c = make_collection(
            [("x1", "u", ["a", "b"]), ("x2", "u", ["b"]), ("x3", "u", [])]
        )
        rebuilt = {}
        for rec in c.images:
            for t in rec.tags:
                rebuilt.setdefault(t, set()).add(rec.image_id)
        assert {t: frozenset(v) for t, v in rebuilt.items()} == c.tag_index


def default_cfg(**over):
    base = dict(
        n_images=200,
        n_tags=5,
        n_users=7,
        features=(
            SyntheticFeature("fa", 3),
            SyntheticFeature("fb", 2, informative_tags=frozenset({"tag000"})),
        ),
        q_correct=0.9,
        q_incorrect=0.05,
        cluster_spread=0.05,
        seed=11,
    )
    base.update(over)
    return SyntheticConfig(**base)


class TestGenerator:
    def test_same_seed_twice_is_identical(self):
        c1, t1 = generate_collection(default_cfg())
        c2, t2 = generate_collection(default_cfg())
        assert c1 == c2
        assert t1 == t2

    def test_different_seed_differs(self):
        c1, _ = generate_collection(default_cfg())
        c2, _ = generate_collection(default_cfg(seed=12))
        assert c1 != c2

    def test_noiseless_limit_matches_ground_truth(self):
        c, truth = generate_collection(default_cfg(q_correct=1.0, q_incorrect=0.0))
        for tag, ids in truth.items():
            assert images_with_tag(c, tag) == ids

    def test_observed_positive_count_within_binomial_bounds(self):
        cfg = default_cfg(n_images=2000, n_tags=10, seed=3)
        c, truth = generate_collection(cfg)
        for tag, relevant in truth.items():
            kept = len(images_with_tag(c, tag) & relevant)
            mean = cfg.q_correct * len(relevant)
            sd = math.sqrt(len(relevant) * cfg.q_correct * (1 - cfg.q_correct))
            assert abs(kept - mean) <= 5 * sd

    def test_observed_tags_enriched_over_prior(self):
        # with q_correct > q_incorrect, tagged images are enriched in truly
        # relevant ones relative to the ground-truth base rate
        for seed in range(20):
            cfg = default_cfg(
                n_images=2000,
                n_tags=10,
                features=(SyntheticFeature("fa", 2),),
                seed=seed,
            )
            c, truth = generate_collection(cfg)
            for tag, relevant in truth.items():
                observed = images_with_tag(c, tag)
                if not observed:
                    continue
                frac = len(observed & relevant) / len(observed)
                assert frac > len(relevant) / len(c)

    def test_ground_truth_not_leaked(self):
        c, truth = generate_collection(default_cfg(q_correct=0.7, q_incorrect=0.2))
        assert any(images_with_tag(c, t) != truth[t] for t in truth)

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ValueError):
            generate_collection(default_cfg(n_tags=0))
        with pytest.raises(ValueError):
            generate_collection(default_cfg(q_correct=0.5, q_incorrect=0.5))
        with pytest.raises(ValueError):
            generate_collection(default_cfg(cluster_spread=0.0))
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            generate_collection(default_cfg(seed=-5))

    def test_informative_flag_controls_clustering(self):
        cfg = default_cfg(n_images=400, cluster_spread=0.01, seed=5)
        c, truth = generate_collection(cfg)
        # fa informative for all: images of one tag huddle near one point
        ids = sorted(truth["tag001"])[:10]
        fa = np.stack([c.vector("fa", i) for i in ids])
        fb_all = np.stack([c.vector("fb", i) for i in sorted(truth["tag001"])])
        assert fa.std(axis=0).max() < 0.05
        # fb uninformative for tag001: rows are ambient noise
        assert fb_all.std(axis=0).min() > 0.1


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        c, _ = generate_collection(default_cfg(n_images=50))
        paths = {"fa": tmp_path / "fa.tsv", "fb": tmp_path / "fb.tsv"}
        save_collection(c, tmp_path / "tags.tsv", paths)
        loaded = load_collection(tmp_path / "tags.tsv", list(paths.values()))
        assert loaded == c
        # re-serialization is byte-identical
        save_collection(loaded, tmp_path / "tags2.tsv", {"fa": tmp_path / "fa2.tsv", "fb": tmp_path / "fb2.tsv"})
        assert (tmp_path / "tags.tsv").read_bytes() == (tmp_path / "tags2.tsv").read_bytes()
        assert (tmp_path / "fa.tsv").read_bytes() == (tmp_path / "fa2.tsv").read_bytes()
        assert (tmp_path / "fb.tsv").read_bytes() == (tmp_path / "fb2.tsv").read_bytes()

    @pytest.mark.parametrize(
        "image_id, user_id, tags, why",
        [
            ("x\t1", "u", ("sky",), "tab, CR or LF"),
            ("x\n1", "u", ("sky",), "tab, CR or LF"),
            ("x1", "u\tv", ("sky",), "tab, CR or LF"),
            ("x1", "u\r", ("sky",), "tab, CR or LF"),
            ("x1", "u", ("sky", "se\na"), "tab, CR or LF"),
            ("#x1", "u", ("sky",), "starts with '#'"),
            ("\ufeffx1", "u", ("sky",), "byte-order mark"),
            (" ", "\u3000", (), "blank"),
            ("x1", "u", ("#sky",), "a tag is empty, holds a space or is not folded"),
            ("x1", "u", ("sky blue",), "a tag is empty, holds a space or is not folded"),
            ("x1", "u", ("sky", ""), "a tag is empty, holds a space or is not folded"),
            ("x1", "u", ("Sky",), "a tag is empty, holds a space or is not folded"),
            ("x1", "u", ("caf\u00e9",), "a tag is empty, holds a space or is not folded"),
        ],
    )
    def test_values_that_would_not_load_back_are_refused(
        self, tmp_path, image_id, user_id, tags, why
    ):
        c = make_collection(
            [("x0", "u", ["sea"]), (image_id, user_id, list(tags))], {"f": [[0.0], [1.0]]}
        )
        message = f"^cannot save image {re.escape(repr(image_id))}: .*{why}"
        with pytest.raises(CollectionError, match=message):
            save_collection(c, tmp_path / "tags.tsv", {"f": tmp_path / "f.tsv"})
        assert not (tmp_path / "tags.tsv").exists() and not (tmp_path / "f.tsv").exists()

    @pytest.mark.parametrize("name", ["a\tb", "a\rb", "a\nb", "\tab"])
    def test_feature_name_that_would_not_load_back_is_refused(self, tmp_path, name):
        c = make_collection([("x0", "u", ["sea"])], {"ok": [[0.0]], name: [[1.0]]})
        paths = {"ok": tmp_path / "ok.tsv", name: tmp_path / "bad.tsv"}
        message = f"^cannot save feature {re.escape(repr(name))}: its name holds a tab, CR or LF$"
        with pytest.raises(CollectionError, match=message):
            save_collection(c, tmp_path / "tags.tsv", paths)
        assert list(tmp_path.iterdir()) == []


def test_image_record_invariants():
    with pytest.raises(CollectionError):
        ImageRecord("", "u", ())
    with pytest.raises(CollectionError):
        ImageRecord("x", "u", ("a", "a"))


def test_synthetic_tag_names_shape():
    names = synthetic_tag_names(3)
    assert names == ["tag000", "tag001", "tag002"]
