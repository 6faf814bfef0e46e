"""Per-layer tracing from outside the package.

`install` replaces every binding that one tagfusion module imported from
another (for example `presets.neighbor_vote_table` or
`estimators.pairwise_l1`) with a wrapper that records a span, plus the few
calls inside one module that a per-layer metric needs (`INTRA_MODULE`).
Python looks module globals up at call time, so the package's own code runs
through the wrappers without being edited. Spans live in memory until the
traced repeat ends; counts are taken from argument shapes and return values.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from tagfusion.evalkit import EXACT_FLIP_LIMIT

PACKAGE = "tagfusion"
LAYERS = ("cli", "presets", "estimators", "fusion", "learning", "neighbors", "evalkit", "collection")

# Calls within one module that a metric needs; bindings between modules are
# all wrapped without being listed.
INTRA_MODULE = {
    "neighbors": ("l1_to_all", "_combined_to_all"),
    "learning": (
        "sample_pairs", "pair_feature_distances", "learn_distance_weights", "coordinate_ascent",
    ),
    "evalkit": ("evaluate_run", "randomization_test"),
}


class Tracer:
    """Spans as [id, name, command, parent, start, end], counts per command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.cmd: int | None = None
        self.last_command: int | None = None
        self.counts: dict[int | None, Counter] = {}
        self.row_keys: dict[int | None, set] = {}

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, self.cmd, parent, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command(self, name: str) -> Iterator[int]:
        """Root span of one CLI command; every span inside shares its id."""
        self.cmd = self.last_command = len(self.spans)
        self.counts[self.cmd] = Counter()
        self.row_keys[self.cmd] = set()
        span = self.open(name)
        try:
            yield span[0]
        finally:
            self.close(span)
            self.cmd = None

    def count(self, key: str, value: float) -> None:
        self.counts.setdefault(self.cmd, Counter())[key] += value

    def distance_rows(self, queries, matrix) -> None:
        """Record L1 rows from each query to every row of `matrix`.

        A feature is identified by its matrix shape and first row, a query
        image by its vector's bytes, so a row computed again for the same
        (feature, image) pair shows in `neighbors.recompute_ratio`.
        """
        feature = (matrix.shape, matrix[0].tobytes() if len(matrix) else b"")
        self.count("neighbors.distance_rows", len(queries))
        self.count("neighbors.distance_evals", len(queries) * matrix.shape[0])
        keys = self.row_keys.setdefault(self.cmd, set())
        keys.update((feature, q.tobytes()) for q in queries)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, cmd, parent, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "command": cmd, "parent": parent,
                     "start": start, "end": end}
                ) + "\n")


# --- counts at layer boundaries: (tracer, args, kwargs, result) -> None -------


def _table_candidates(t: Tracer, args, kwargs, result) -> None:
    t.count("estimators.candidates", len(result.scores))


def _flips(t: Tracer, args, kwargs, result) -> None:
    n = len(args[0])
    n_perm = args[2] if len(args) > 2 else kwargs.get("n_perm", 100_000)
    t.count("evalkit.flips", 2**n if n <= EXACT_FLIP_LIMIT else n_perm)


COUNTERS: dict[str, Callable] = {
    "collection.load_collection": lambda t, a, kw, r: t.count(
        "collection.rows_parsed", len(r) * (1 + len(r.features))
    ),
    "neighbors.pairwise_l1": lambda t, a, kw, r: t.distance_rows(a[0], a[1]),
    "neighbors.l1_to_all": lambda t, a, kw, r: t.distance_rows(a[1].reshape(1, -1), a[0]),
    "neighbors.l1_distance": lambda t, a, kw, r: t.count("neighbors.distance_evals", 1),
    "estimators.neighbor_vote_table": _table_candidates,
    "estimators.early_fused_table": _table_candidates,
    "fusion.late_fuse": lambda t, a, kw, r: t.count("fusion.fused_scores", len(r.scores)),
    "learning.sample_pairs": lambda t, a, kw, r: t.count("learning.pairs", len(r)),
    "learning.coordinate_ascent": lambda t, a, kw, r: t.count("learning.ascent_calls", 1),
    "evalkit.randomization_test": _flips,
}


def _traced(tracer: Tracer, fn: Callable, name: str) -> Callable:
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        finally:
            tracer.close(span)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the cross-module bindings; returns the function that restores them."""
    wrappers: dict[Callable, Callable] = {}
    patched: list[tuple[object, str, Callable]] = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith(PACKAGE + "."):
                continue
            if obj.__module__ == module.__name__ and attr not in INTRA_MODULE.get(layer, ()):
                continue
            if obj not in wrappers:
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                wrappers[obj] = _traced(tracer, obj, name)
            setattr(module, attr, wrappers[obj])
            patched.append((module, attr, obj))

    def uninstall() -> None:
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return uninstall


# --- per-layer metrics ---------------------------------------------------------

# metric -> (total or self time, span names). Self time is a span's duration
# minus that of its child spans.
TIMES: dict[str, tuple[str, tuple[str, ...]]] = {
    "collection.load_s": ("total", ("collection.load_collection",)),
    "collection.synth_s": (
        "total", ("collection.generate_collection", "collection.save_collection", "evalkit.write_qrels"),
    ),
    "neighbors.l1_s": (
        "self", ("neighbors.pairwise_l1", "neighbors.l1_to_all", "neighbors.l1_distance"),
    ),
    "neighbors.combined_s": ("self", ("neighbors._combined_to_all",)),
    "neighbors.calibrate_s": ("total", ("neighbors.calibrate_normalizers",)),
    "estimators.vote_self_s": ("self", ("estimators.neighbor_vote_table",)),
    "estimators.early_self_s": ("self", ("estimators.early_fused_table",)),
    "fusion.normalize_s": ("total", ("fusion.minmax_normalize", "fusion.rankmax_normalize")),
    "fusion.late_fuse_s": ("total", ("fusion.late_fuse",)),
    "learning.sample_pairs_s": ("total", ("learning.sample_pairs",)),
    "learning.pair_distances_s": ("self", ("learning.pair_feature_distances",)),
    "learning.gradient_s": ("total", ("learning.learn_distance_weights",)),
    "learning.ascent_s": ("self", ("learning.coordinate_ascent", "learning.learn_per_concept")),
    "presets.training_tables_s": ("self", ("presets.build_training_tables",)),
    "presets.score_self_s": ("self", ("presets.score_preset",)),
    "evalkit.read_run_s": ("total", ("evalkit.read_run",)),
    "evalkit.write_run_s": ("total", ("evalkit.write_run",)),
    "evalkit.run_from_tables_s": ("total", ("evalkit.run_from_tables",)),
    "evalkit.metrics_s": ("total", ("evalkit.evaluate_run",)),
    "evalkit.randomization_s": ("total", ("evalkit.randomization_test",)),
    "cli.self_s": ("self", ("cli.score", "cli.learn", "cli.eval")),
    "cli.score_s": ("total", ("cli.score",)),
    "cli.learn_s": ("total", ("cli.learn",)),
    "cli.eval_s": ("total", ("cli.eval",)),
}
COUNTS = (
    "collection.rows_parsed", "neighbors.distance_evals", "estimators.candidates",
    "fusion.fused_scores", "learning.pairs", "learning.ascent_calls", "evalkit.flips",
)


def layer_metrics(tracer: Tracer, commands: Iterable[int]) -> dict[str, float]:
    """Per-layer times and counts summed over the given commands."""
    commands = set(commands)
    spans = [s for s in tracer.spans if s[2] in commands]
    children: Counter = Counter()
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    for sid, name, _, _, start, end in spans:
        total[name] += end - start
        own[name] += end - start - children[sid]
    out: dict[str, float] = {}
    for metric, (kind, names) in TIMES.items():
        source = total if kind == "total" else own
        out[metric] = sum(source[n] for n in names)
    counts: Counter = Counter()
    keys: set = set()
    for cmd in commands:
        counts.update(tracer.counts.get(cmd, Counter()))
        keys |= tracer.row_keys.get(cmd, set())
    for key in COUNTS:
        out[key] = float(counts[key])
    # rows computed per distinct (feature, query image); 0 when no rows at all
    rows = counts["neighbors.distance_rows"]
    out["neighbors.recompute_ratio"] = rows / len(keys) if keys else 0.0
    return out


NEIGHBOR_WORK = (
    "neighbors.l1_s", "neighbors.combined_s", "neighbors.calibrate_s",
    "estimators.vote_self_s", "estimators.early_self_s",
)


def neighbor_share(tracer: Tracer, score_commands: list[int]) -> float:
    """Share of `score` wall time spent in neighbor search and voting.

    This is the part of scoring that a faster neighbor engine can remove.
    """
    m = layer_metrics(tracer, score_commands)
    wall = m["cli.score_s"]
    return sum(m[k] for k in NEIGHBOR_WORK) / wall if wall > 0 else 0.0
