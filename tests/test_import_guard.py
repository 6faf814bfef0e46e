"""The package never loads `numpy.ma`.

On numpy 2.x, `np.unique` (reached from `np.percentile`) and `np.median`
import `numpy.ma` lazily on their first call, which costs a command tens of
milliseconds and about 2 MB. The package takes its quantiles from one
`np.partition` instead; these tests keep it that way.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each of these was checked to import numpy.ma on its first call (numpy 2.4);
# np.isin, np.mean and np.partition were checked too and do not.
LOADS_MA = (
    "unique", "percentile", "nanpercentile", "quantile", "median",
    "setdiff1d", "union1d", "intersect1d", "ma",
)

SCRIPT = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
from tagfusion.cli import main
world, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "--out", world, "--images", "60", "--tags", "4",
                 "--features", "visa:3,visb:3", "--seed", "2"]) == 0
    files = ["--tags", world + "/tags.tsv",
             "--features", world + "/visa.tsv," + world + "/visb.tsv", "--k", "5"]
    for argv in (
        ["learn", *files, "--qrels", world + "/qrels.tsv", "--scheme", "early",
         "--per-concept", "--pairs", "50", "--out", out + "/learned"],
        ["score", *files, "--preset", "early-minmax-average", "--out", out + "/early.run"],
        ["score", *files, "--preset", "tagranking", "--out", out + "/kde.run"],
    ):
        assert main(argv) == 0, argv
added = set(sys.modules) - before
print(" ".join(sorted(m for m in added if m == "numpy.ma" or m.startswith("numpy.ma."))))
"""


def test_commands_load_no_numpy_ma(tmp_path):
    """Against what `import numpy` loaded, so it also holds where numpy
    imports numpy.ma itself (numpy 1.x)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "world"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
    assert (tmp_path / "out" / "learned" / "weights-concepts.tsv").is_file()


def test_source_calls_nothing_that_loads_numpy_ma():
    """Every `np.<name>` or `numpy.<name>` reference in the package's code
    (docstrings and comments aside)."""
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.value.id}.{node.attr}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in LOADS_MA
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert hits == []
