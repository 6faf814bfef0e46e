"""Every line-format loader on malformed bytes: it loads, or it raises a
ValueError whose message starts with the file's path."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfusion.cli import main, read_config_file
from tagfusion.collection import CollectionError, load_collection
from tagfusion.evalkit import read_qrels, read_run
from tagfusion.fusion import read_concept_weights, read_weights

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


BYTES = st.sampled_from([b"\t", b"\n", b"\r", b"#", b"\xff", b" ", b",", b"=", b"0", b"-", b"e"])
MUTATIONS = st.tuples(
    st.sampled_from(["insert", "delete", "replace", "truncate"]),
    st.integers(0, 1 << 16),
    BYTES | st.binary(min_size=1, max_size=1),
)


def mutate(data, op, pos, byte):
    pos %= len(data) + (op in ("insert", "truncate"))
    if op == "insert":
        return data[:pos] + byte + data[pos:]
    if op == "replace":
        return data[:pos] + byte + data[pos + 1:]
    return data[:pos] + data[pos + 1:] if op == "delete" else data[:pos]


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100)
@given(mutation=MUTATIONS)
def test_mutated_file_loads_or_names_its_path(tmp_path_factory, name, mutation):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}"
    path.mkdir(exist_ok=True)
    path = path / "file"
    path.write_bytes(mutate(LOADERS[name][0], *mutation))
    try:
        load(name, path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc
