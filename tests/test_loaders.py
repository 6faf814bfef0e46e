"""Every line-format loader on malformed bytes: it loads, or it raises a
ValueError whose message starts with the file's path. The collection loader
also returns what the line-by-line reference in `oracles.py` returns, or
raises the same error."""
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfusion.cli import main, read_config_file
from tagfusion.collection import CollectionError, load_collection, normalize_tag, save_collection
from tagfusion.evalkit import Qrels, RunFile, read_qrels, read_run, write_qrels, write_run
from tagfusion.fusion import (
    read_concept_weights, read_weights, write_concept_weights, write_weights,
)
from tagfusion.neighbors import WeightVector

from conftest import make_collection
from oracles import load_collection_by_line

TAGS = b"x1\tu1\tsky sea\n# a comment\nx2\tu2\tsky\nx3\tu1\t\n"
FEATURE = b"#feature\tvisa\t2\nx1\t0.1,0.2\nx2\t0.3,-4e-3\nx3\t5,6\n"

# name -> (valid bytes of at least three lines, loader of a path)
LOADERS = {
    "tags": (TAGS, lambda path: load_collection(path, [])),
    "feature": (FEATURE, None),  # loaded against the valid tags file
    "qrels": (b"sky\tx1\t1\nsky\tx2\t0\nsea\tx1\t1\n", read_qrels),
    "run": (b"sky\tx1\t1\t0.9\tr\nsky\tx2\t2\t0.5\tr\nsea\tx1\t1\t0.7\tr\n", read_run),
    "weights": (b"# global\ntagrel:visa\t0.25\ntagrel:visb\t0.75\n", read_weights),
    "concept-weights": (b"# fallback: sea\nsky\te0\t0.5\nsky\te1\t1.5\n", read_concept_weights),
    "config": (b"k = 10\n# comment\nseed = 3\n", read_config_file),
}


def load(name, path):
    loader = LOADERS[name][1]
    if loader is None:
        tags = path.parent / "valid-tags.tsv"
        tags.write_bytes(TAGS)
        return load_collection(tags, [path])
    return loader(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_files_load(tmp_path, name):
    path = tmp_path / "file"
    path.write_bytes(LOADERS[name][0])
    load(name, path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_byte_order_mark_is_skipped(tmp_path, name):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(LOADERS[name][0])
    marked.write_bytes(b"\xef\xbb\xbf" + LOADERS[name][0])
    assert load(name, marked) == load(name, plain)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_bad_utf8_names_file_and_line(tmp_path, name):
    lines = LOADERS[name][0].split(b"\n")
    lines[2] = lines[2][:2] + b"\xff" + lines[2][2:]
    path = tmp_path / "file"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not valid UTF-8$"):
        load(name, path)


def test_bad_utf8_line_follows_every_newline_kind(tmp_path):
    path = tmp_path / "file"
    path.write_bytes(b"sky\tx1\t1\r\nsky\tx2\t0\rsea\t\xe2\x82\xac\t1\n\xe2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: not valid UTF-8$"):
        read_qrels(path)


def test_cli_exits_2_on_bad_utf8(tmp_path, capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_bytes(TAGS.replace(b"x2\tu2", b"x2\tu\xff2"))
    feats = tmp_path / "visa.tsv"
    feats.write_bytes(FEATURE)
    code = main([
        "score", "--tags", str(tags), "--features", str(feats),
        "--preset", "tagrel-visa", "--out", str(tmp_path / "r.run"),
    ])
    assert code == 2
    assert f"error: {tags}:3: not valid UTF-8" in capsys.readouterr().err


def test_empty_tags_file_rejected(tmp_path, capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_text("# only a comment\n\n")
    feats = tmp_path / "visa.tsv"
    feats.write_text("#feature\tvisa\t2\n")
    with pytest.raises(CollectionError, match=f"^{re.escape(str(tags))}: no image rows$"):
        load_collection(tags, [feats])
    out = tmp_path / "r.run"
    code = main(["score", "--tags", str(tags), "--features", str(feats),
                 "--preset", "tagrel-visa", "--out", str(out)])
    assert code == 2
    assert f"error: {tags}: no image rows" in capsys.readouterr().err
    assert not out.exists()


BYTES = st.sampled_from([
    b"\t", b"\n", b"\r", b"#", b"\xff", b" ", b",", b"=", b"0", b"-", b"e", b"_", b".",
    "\u0663".encode(), "\u00e9".encode(),  # an Arabic-Indic digit and a folded letter
])
MUTATIONS = st.tuples(
    st.sampled_from(["insert", "delete", "replace", "truncate"]),
    st.integers(0, 1 << 16),
    BYTES | st.binary(min_size=1, max_size=1),
)


def mutate(data, op, pos, byte):
    pos %= max(1, len(data) + (op in ("insert", "truncate")))  # an earlier edit may empty it
    if op == "insert":
        return data[:pos] + byte + data[pos:]
    if op == "replace":
        return data[:pos] + byte + data[pos + 1:]
    return data[:pos] + data[pos + 1:] if op == "delete" else data[:pos]


def mutate_all(data, mutations):
    for mutation in mutations:
        data = mutate(data, *mutation)
    return data


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_file_loads_or_names_its_path(tmp_path_factory, name, mutations):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}"
    path.mkdir(exist_ok=True)
    path = path / "file"
    path.write_bytes(mutate_all(LOADERS[name][0], mutations))
    try:
        load(name, path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc


# --- the block-converting collection loader against the line-by-line one ------

def _long_feature(name, rows):
    return f"#feature\t{name}\t2\n".encode() + b"".join(
        b"x%d\t%s\n" % (i, row) for i, row in enumerate(rows)
    )


LONG = 300  # rows: more than one conversion block
# worlds of (tags files, feature files); a case takes one tags file and two
# different feature files of one world, valid or with one or several faults
DIFF_WORLDS = [
    (
        [
            b"x1\tu1\tsky sea\n# a comment\nx2\tu2\tsky\nx3\tu1\t\nx4\tu3\tsea\n",
            "x1\tu1\tSky Caf\u00e9\nx2\tu2\t sky  sea \n\nx3\tu1\t\nx4\tu3\tsea\n".encode(),
            b"x1\tu1\tsky\nx2\tu2\tsky sky\nx2\tu2\tsea\nx3\tu1\n",  # three faults
        ],
        [
            b"#feature\tvisa\t2\nx1\t0.1,0.2\nx2\t0.3,-4e-3\nx3\t5,6\nx4\t1_0,7\n",
            "#feature\tvisb\t3\nx1\t1_0,\u0663.5,-0.0\n# note\nx2\t 1e-3 ,+2,.5\n"
            "x3\t1e308,0.1000000000000000055511151231257827,5.\nx4\t\u0661\u0662,1E2,-7\n".encode(),
            b"#feature\tvisf\t2\nx1\t1e-310,2\nx2\t-5e-324,3\nx3\t+.5e+1,1_000.000_1\nx4\t0,0\n",
            "#feature\tvisg\t1\n\nx4\t\u0966.\u0967\nx3\t2\n#\nx2\t3\nx1\t-4\n".encode(),
            b"#feature\tvisc\t2\nx1\t1,inf\nx2\t1e309,-1\nx3\tnan,0\nx4\t1,,2\n",
            "#feature\tvisd\t1\nx1\t1_0\nx2\t-Infinity\nx3\t\u0663\u0661\nx4\tNaN\n".encode(),
            b"#feature\tvise\t2\nx1\t1,2\nx2\t\t1\nx3\t1,2,3\n\nx1\t3,4\nx4\t0x1,2\n",
            b"#feature\tvish\t1000000000000\nx1\t1,2\n",  # a dim no row can have
            b"#feature\tvisi\t1\nx1\t1e308\nx2\t-1e308\nx3\t0\nx4\t0\n",  # L1 overflows
        ],
    ),
    (
        [b"".join(b"x%d\tu%d\ttag%d\n" % (i, i % 7, i % 5) for i in range(LONG))],
        [
            _long_feature("la", [b"%d.5,1_%d" % (i, i) for i in range(LONG)]),
            _long_feature("lb", [b"-%de-3, %d " % (i, i) for i in range(LONG)]),
            _long_feature("le", [b"%de-%d,-0.%d" % (i, i % 300, i) for i in range(LONG)]),
            _long_feature("lc", [b"1,nan" if i == 280 else b"%d,0" % i for i in range(LONG)]),
            _long_feature("ld", [b"1" if i == 290 else b"%d,1e3%d" % (i, i % 10) for i in range(LONG)]),
        ],
    ),
]


@st.composite
def diff_case(draw):
    tags_files, feature_files = draw(st.sampled_from(DIFF_WORLDS))
    features = draw(st.lists(st.sampled_from(feature_files), min_size=2, max_size=2, unique=True))
    return [draw(st.sampled_from(tags_files)), *features]


def load_or_error(loader, tags, features):
    try:
        c = loader(tags, features)
    except ValueError as exc:
        return type(exc), str(exc)
    return c.images, [(n, f.dim, f.matrix.tobytes()) for n, f in c.features.items()]


@settings(max_examples=300)
@given(
    files=diff_case(),
    edits=st.lists(st.tuples(st.integers(0, 2), MUTATIONS), min_size=1, max_size=3),
)
def test_loader_matches_line_by_line_reference(tmp_path_factory, files, edits):
    folder = tmp_path_factory.getbasetemp() / "differential"
    folder.mkdir(exist_ok=True)
    paths = [folder / "tags.tsv", folder / "fa.tsv", folder / "fb.tsv"]
    for i, (path, data) in enumerate(zip(paths, files)):
        path.write_bytes(mutate_all(data, [m for f, m in edits if f == i]))
    assert load_or_error(load_collection, paths[0], paths[1:]) == load_or_error(
        load_collection_by_line, paths[0], paths[1:]
    )


def test_unedited_corpus_matches_line_by_line_reference(tmp_path):
    paths = [tmp_path / "tags.tsv", tmp_path / "fa.tsv", tmp_path / "fb.tsv"]
    for tags_files, feature_files in DIFF_WORLDS:
        for files in itertools.product(tags_files, feature_files, feature_files):
            for path, data in zip(paths, files):
                path.write_bytes(data)
            assert load_or_error(load_collection, paths[0], paths[1:]) == load_or_error(
                load_collection_by_line, paths[0], paths[1:]
            ), files


@pytest.mark.parametrize("bad_row", [0, 1, 254, 255, 256, 257, 511, 512, 599])
@pytest.mark.parametrize("fault", ["unparseable", "non-finite", "structural"])
def test_fault_at_block_edges_matches_line_by_line_reference(tmp_path, bad_row, fault):
    n = 600
    tags = tmp_path / "tags.tsv"
    tags.write_text("".join(f"x{i}\tu\tsky\n" for i in range(n)))
    rows = [f"x{i}\t{i}.25,-{i}e-3" for i in range(n)]
    rows[bad_row] = {
        "unparseable": f"x{bad_row}\t1,2x",
        "non-finite": f"x{bad_row}\t1,-inf",
        "structural": f"x{bad_row}\t1,2,3",
    }[fault]
    rows[(bad_row + 300) % n] = f"x{(bad_row + 300) % n}\t1e309,0"  # a second fault
    feats = tmp_path / "visa.tsv"
    feats.write_text("#feature\tvisa\t2\n" + "\n".join(rows) + "\n")
    got = load_or_error(load_collection, tags, [feats])
    assert got == load_or_error(load_collection_by_line, tags, [feats])
    assert got[0] is CollectionError
    assert got[1].startswith(f"{feats}:{min(bad_row, (bad_row + 300) % n) + 2}: ")


# --- each writer against its reader -------------------------------------------

# field text as the formats allow it: any character but a tab, CR or LF,
# so '#', spaces and non-ASCII letters and digits too
CHAR = st.sampled_from(["#", " ", "é", "٣", "x"]) | st.characters(
    exclude_characters="\t\r\n", exclude_categories=("Cs",)
)
FIELD = st.text(CHAR, min_size=1, max_size=6)
# a line's first field: not a '#' comment, a byte-order mark or only space
FIRST = FIELD.filter(lambda s: s.strip() and not s.startswith(("#", "\ufeff")))
# tags as `load_collection` yields them, so '#sky' appears as 'sky'
TAG = (
    st.text(CHAR.filter(lambda c: c != " "), min_size=1, max_size=6)
    .map(normalize_tag)
    .filter(lambda t: t and " " not in t)
)
SCORE = st.floats(-1e300, 1e300)


def named_weights(name):
    """WeightVectors of 1-3 (name, weight) pairs, not all weights 0."""
    pairs = st.lists(st.tuples(name, st.floats(0, 1e300)), min_size=1, max_size=3)
    return pairs.filter(lambda p: any(w for _, w in p)).map(
        lambda p: WeightVector.normalized(*zip(*p))
    )


def _roundtrip_path(tmp_path_factory, name):
    folder = tmp_path_factory.getbasetemp() / "roundtrip"
    folder.mkdir(exist_ok=True)
    return folder / name


@settings(max_examples=60)
@given(
    records=st.lists(
        st.tuples(FIRST, FIELD | st.just(""), st.lists(TAG, max_size=3, unique=True)),
        min_size=1, max_size=4, unique_by=lambda r: r[0],
    ),
    feature=st.tuples(FIELD, st.integers(1, 3)),
    data=st.data(),
)
def test_collection_reads_back_as_written(tmp_path_factory, records, feature, data):
    name, dim = feature
    row = st.lists(SCORE, min_size=dim, max_size=dim)
    rows = data.draw(st.lists(row, min_size=len(records), max_size=len(records)))
    c = make_collection(records, {name: rows})
    tags = _roundtrip_path(tmp_path_factory, "tags.tsv")
    feats = _roundtrip_path(tmp_path_factory, "f.tsv")
    save_collection(c, tags, {name: feats})
    assert load_collection(tags, [feats]) == c


@settings(max_examples=60)
@given(st.dictionaries(TAG, st.dictionaries(FIELD, st.sampled_from([0, 1]), min_size=1), max_size=3))
def test_qrels_read_back_as_written(tmp_path_factory, judgments):
    path = _roundtrip_path(tmp_path_factory, "qrels.tsv")
    write_qrels(path, Qrels(judgments))
    assert read_qrels(path) == Qrels(judgments)


@settings(max_examples=60)
@given(
    st.dictionaries(TAG, st.dictionaries(FIELD, SCORE, min_size=1), min_size=1, max_size=3),
    FIELD,
)
def test_run_reads_back_as_written(tmp_path_factory, scores, run_id):
    # ranked as a run must be: descending score, ties by ascending image id
    rankings = {t: tuple(sorted(s.items(), key=lambda e: (-e[1], e[0]))) for t, s in scores.items()}
    path = _roundtrip_path(tmp_path_factory, "r.run")
    write_run(path, RunFile(run_id, rankings))
    assert read_run(path) == RunFile(run_id, rankings)


@settings(max_examples=60)
@given(named_weights(FIELD.filter(lambda s: not s.startswith("#"))))
def test_weights_read_back_as_written(tmp_path_factory, wv):
    path = _roundtrip_path(tmp_path_factory, "w.tsv")
    write_weights(path, wv)
    # the reader normalizes what it reads: the written floats, bit for bit
    assert read_weights(path) == WeightVector.normalized(wv.names, wv.weights)


@settings(max_examples=60)
@given(st.dictionaries(TAG, named_weights(FIELD), min_size=1, max_size=3), st.sets(TAG, max_size=3))
def test_concept_weights_read_back_as_written(tmp_path_factory, per_concept, fallbacks):
    path = _roundtrip_path(tmp_path_factory, "cw.tsv")
    write_concept_weights(path, per_concept, fallbacks)
    assert read_concept_weights(path) == (
        {t: WeightVector.normalized(wv.names, wv.weights) for t, wv in per_concept.items()},
        frozenset(fallbacks),
    )
