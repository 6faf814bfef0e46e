"""Command-line driver: synth, score, learn, eval, list-presets.

Any flag may also come from a config file of `key = value` lines (keys are
the long flag names, dashes or underscores); explicit flags win. All
randomness flows from the single --seed, split deterministically per
component, so identical invocations produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import Callable, Sequence

from .collection import (
    _FIELD_BREAK,
    SyntheticConfig,
    SyntheticFeature,
    _read_lines,
    _write_records,
    generate_collection,
    load_collection,
    save_collection,
    synthetic_tag_names,
)
from .evalkit import Qrels, read_qrels, read_run, render_report, write_qrels, write_run
from .fusion import (
    read_concept_weights,
    read_weights,
    write_concept_weights,
    write_weights,
)
from .learning import (
    AscentConfig,
    _fit_pairs,
    _label_matrix,
    coordinate_ascent,
    learn_distance_weights_per_concept,
    learn_per_concept,
)
from .presets import (
    NORMS,
    SCHEMES,
    ScoreSettings,
    _parse_estimator,
    available_presets,
    build_training_tables,
    derive_seed,
    early_normalizers,
    score_preset,
)

class CliError(ValueError):
    pass


def _csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {value!r}")


def _choice(*values: str) -> Callable[[str], str]:
    def one_of(value: str) -> str:
        if value not in values:
            raise ValueError(f"must be one of {', '.join(values)}; got {value!r}")
        return value

    return one_of


def _number(kind: type, value: str) -> int | float:
    try:
        return kind(value)
    except ValueError:
        kind_name = "an integer" if kind is int else "a number"
        raise ValueError(f"must be {kind_name}, got {value!r}") from None


def _at_least(bound: int) -> Callable[[str], int]:
    def at_least(value: str) -> int:
        number = _number(int, value)
        if number < bound:
            raise ValueError(f"must be >= {bound}, got {number}")
        return number

    return at_least


def _finite_above(bound: float) -> Callable[[str], float]:
    def above(value: str) -> float:
        number = _number(float, value)
        if not (math.isfinite(number) and number > bound):
            raise ValueError(f"must be finite and > {bound:g}, got {number!r}")
        return number

    return above


def _fraction(value: str) -> float:
    number = _number(float, value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"must be in [0, 1], got {number!r}")
    return number


_at_least_one = _at_least(1)
_metric = _choice("ap", "ndcg")
_positive = _finite_above(0.0)
_above_one = _finite_above(1.0)


def _names(value: str) -> list[str]:
    names = _csv(value)
    if not names:
        raise ValueError("must list at least one name")
    return names


def _synth_features(value: str) -> dict[str, int]:
    """`name:dim,...` -> {name: dim} in order: at least one name, each once
    and a plain file name (each is written to `<out>/<name>.tsv`), each dim >= 1."""
    dims: dict[str, int] = {}
    for spec in _csv(value):
        name, colon, dim = spec.partition(":")
        try:
            if not (name and colon):
                raise ValueError("must be name:dim")
            if name in dims:
                raise ValueError(f"name {name!r} repeats")
            if Path(name).name != name or name in (".", ".."):
                raise ValueError(f"name {name!r} is not a plain file name")
            dims[name] = _at_least_one(dim)
        except ValueError as exc:
            raise ValueError(f"spec {spec!r}: {exc}") from None
    if not dims:
        raise ValueError("must list at least one name:dim")
    return dims


def _estimators(value: str) -> list[str]:
    specs = _csv(value)
    for spec in specs:
        _parse_estimator(spec)  # the one spec grammar: refuses an unknown spec
    return specs


def _run_id(value: str) -> str:
    if _FIELD_BREAK.search(value):
        raise ValueError(f"must not hold a tab, CR or LF, got {value!r}")
    return value


# the default of a key its command cannot run without
REQUIRED = object()

# key -> (converter, default or REQUIRED); the converter turns a flag's or
# a config line's string into the value, refusing one out of range
Opt = tuple[Callable[[str], object], object]


def read_config_file(path: str | Path) -> dict[str, tuple[int, str]]:
    """Config keys (dashes folded to underscores) -> (line number, value)."""
    out: dict[str, tuple[int, str]] = {}
    for no, line in _read_lines(Path(path)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in out:
            raise CliError(
                f"{path}:{no}: duplicate config key {key!r} (first on line {out[key][0]})"
            )
        out[key] = (no, value.strip())
    return out


def _resolve(args: argparse.Namespace, options: dict[str, Opt]) -> dict[str, object]:
    """Each key's value: its flag, else its config line, else its default,
    converted by the key's converter when it is text. Raises CliError on a
    bad value, then on a required key left missing or empty."""
    config = read_config_file(args.config) if args.config else {}
    for key, (no, _) in config.items():
        if key not in options:
            raise CliError(f"{args.config}:{no}: unknown config key {key!r}")
    resolved: dict[str, object] = {}
    for key, (convert, default) in options.items():
        no, value = None, getattr(args, key)
        if value is None:  # no flag: the config line, else the default
            no, value = config.get(key, (None, default))
        if isinstance(value, str):  # a default of None, REQUIRED or a number is kept
            try:
                value = _number(int, value) if convert is int else convert(value)
            except ValueError as exc:
                where = key if no is None else f"{args.config}:{no}: {key}:"
                raise CliError(f"{where} {exc}") from None
        resolved[key] = value
    for key, (_, default) in options.items():
        if default is REQUIRED and resolved[key] in (REQUIRED, "", []):
            raise CliError(f"{args.command} requires --{key.replace('_', '-')}")
    return resolved


def _add_options(parser: argparse.ArgumentParser, options: dict[str, Opt]) -> None:
    parser.add_argument("--config", help="key = value file supplying any flag")
    for key, (convert, default) in options.items():
        flag = "--" + key.replace("_", "-")
        if convert is _bool:
            parser.add_argument(flag, action="store_const", const="true")
        else:
            shown = None if default is None or default is REQUIRED else str(default)
            parser.add_argument(flag, metavar=shown)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

SYNTH_OPTIONS: dict[str, Opt] = {
    "out": (str, REQUIRED),
    "images": (_at_least_one, 2000),
    "tags": (_at_least_one, 20),
    "users": (_at_least_one, 50),
    "features": (_synth_features, "visa:8,visb:8"),
    "informativeness": (_choice("split", "all"), "split"),
    "q_correct": (_fraction, 0.9),
    "q_incorrect": (_fraction, 0.05),
    "cluster_spread": (_positive, 0.05),
    "seed": (_at_least(0), 0),
}


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _resolve(args, SYNTH_OPTIONS)
    tag_names = synthetic_tag_names(int(opts["tags"]))
    size = -(-len(tag_names) // len(opts["features"]))  # tags per feature when split
    features = tuple(
        SyntheticFeature(name, dim, None if opts["informativeness"] == "all" else
                         frozenset(tag_names[i * size : (i + 1) * size]))
        for i, (name, dim) in enumerate(opts["features"].items())
    )
    cfg = SyntheticConfig(
        n_images=int(opts["images"]),
        n_tags=int(opts["tags"]),
        n_users=int(opts["users"]),
        features=features,
        q_correct=float(opts["q_correct"]),
        q_incorrect=float(opts["q_incorrect"]),
        cluster_spread=float(opts["cluster_spread"]),
        seed=int(opts["seed"]),
    )
    collection, truth = generate_collection(cfg)
    out = Path(str(opts["out"]))
    save_collection(
        collection,
        out / "tags.tsv",
        {f.name: out / f"{f.name}.tsv" for f in features},
    )
    write_qrels(out / "qrels.tsv", Qrels.from_ground_truth(truth))
    print(f"wrote {len(collection)} images, {len(features)} features to {out}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

# the collection and estimator settings that score and learn share
COLLECTION_OPTIONS: dict[str, Opt] = {
    "tags": (str, REQUIRED),
    "features": (_csv, REQUIRED),
    "out": (str, REQUIRED),
    "k": (_at_least_one, 500),
    "estimators": (_estimators, None),
    "kde_feature": (str, None),
    "kde_sample_cap": (_at_least_one, 500),
    "min_count": (int, 1),
    "calib_sample_size": (_at_least_one, 10000),
    "seed": (int, 0),
}

SCORE_OPTIONS: dict[str, Opt] = {
    **COLLECTION_OPTIONS,
    "preset": (str, REQUIRED),
    "run_id": (_run_id, None),
    "query_tags": (_csv, None),
    "weights": (str, None),
    "concept_weights": (str, None),
}


def _settings_from(opts: dict[str, object], feature_names: tuple[str, ...]) -> ScoreSettings:
    weights = read_weights(str(opts["weights"])) if opts.get("weights") else None
    concept_weights = None
    if opts.get("concept_weights"):
        concept_weights, _ = read_concept_weights(str(opts["concept_weights"]))
    return ScoreSettings(
        features=feature_names,
        k=int(opts["k"]),
        estimators=tuple(opts["estimators"] or ()),
        kde_feature=opts["kde_feature"] or None,
        kde_sample_cap=int(opts["kde_sample_cap"]),
        min_count=int(opts["min_count"]),
        calib_sample_size=int(opts["calib_sample_size"]),
        seed=int(opts["seed"]),
        weights=weights,
        concept_weights=concept_weights,
        query_tags=tuple(opts["query_tags"]) if opts.get("query_tags") else None,
    )


def cmd_score(args: argparse.Namespace) -> int:
    opts = _resolve(args, SCORE_OPTIONS)
    collection = load_collection(str(opts["tags"]), opts["features"])
    settings = _settings_from(opts, tuple(collection.features))
    run = score_preset(collection, str(opts["preset"]), settings, run_id=opts["run_id"] or None)
    out = Path(str(opts["out"]))
    write_run(out, run)
    print(f"wrote run {run.run_id!r} ({len(run.rankings)} tags) to {out}")
    return 0


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

LEARN_OPTIONS: dict[str, Opt] = {
    **COLLECTION_OPTIONS,
    "qrels": (str, REQUIRED),
    "scheme": (_choice(*SCHEMES), "late"),
    "norm": (_choice(*NORMS), "minmax"),
    "metric": (_metric, "ap"),
    "cutoff": (_at_least_one, 100),
    "per_concept": (_bool, False),
    "min_pos": (int, 1),
    "pairs": (_at_least_one, 1000),
    "delta0": (_positive, 0.05),
    "growth": (_above_one, 2.0),
    "line_steps": (_at_least_one, 10),
    "tol": (_positive, 1e-6),
    "max_sweeps": (_at_least_one, 50),
    "restarts": (_at_least_one, 3),
}


def cmd_learn(args: argparse.Namespace) -> int:
    opts = _resolve(args, LEARN_OPTIONS)
    if opts["scheme"] == "early" and opts["norm"] != "minmax":
        raise CliError(
            "learn --scheme early fits its weights on MinMax distances, for every "
            "early preset; --norm rankmax applies to --scheme late only"
        )
    collection = load_collection(str(opts["tags"]), opts["features"])
    qrels = read_qrels(str(opts["qrels"]))
    feature_names = tuple(collection.features)
    settings = _settings_from(opts, feature_names)
    out = Path(str(opts["out"]))
    log_rows: list[tuple] = []  # learn.log: a '# global' or '# concept' line, then its moves
    pc = None  # per-concept result, when asked for

    if opts["scheme"] == "late":
        cfg = AscentConfig(
            metric=str(opts["metric"]),
            cutoff=int(opts["cutoff"]),
            delta0=float(opts["delta0"]),
            growth=float(opts["growth"]),
            steps=int(opts["line_steps"]),
            tol=float(opts["tol"]),
            max_sweeps=int(opts["max_sweeps"]),
            restarts=int(opts["restarts"]),
            seed=derive_seed(int(opts["seed"]), "ascent"),
        )
        tables = build_training_tables(collection, qrels.tags(), settings, str(opts["norm"]))
        if not tables:
            raise CliError("no training concept labels any image in the collection")
        result = coordinate_ascent(tables, qrels, cfg)
        log_rows += [("# global",), *result.trace]
        if opts["per_concept"]:
            pc = learn_per_concept(
                tables, qrels, cfg,
                min_pos=int(opts["min_pos"]),
                global_weights=result.weights,
            )
            for tag in sorted(pc.traces):
                log_rows += [(f"# concept {tag}",), *pc.traces[tag]]
    else:
        normalizers = early_normalizers(collection, settings, "minmax")
        rows, labels = _label_matrix(qrels, collection)
        result = _fit_pairs(
            collection, rows, labels, feature_names, normalizers,
            int(opts["pairs"]), derive_seed(int(opts["seed"]), "pairs"),
        )
        log_rows += [("# global",)] + [
            (it, name, w, result.trace[it])
            for it, wvec in enumerate(result.weight_trace, start=1)
            for name, w in zip(feature_names, wvec)
        ]
        if opts["per_concept"]:
            pc = learn_distance_weights_per_concept(
                collection, qrels.tags(), rows, labels, feature_names, normalizers,
                n_pairs=int(opts["pairs"]),
                min_pos=int(opts["min_pos"]),
                seed=derive_seed(int(opts["seed"]), "pairs-per-concept"),
                global_weights=result.weights,
            )

    # nothing is written until every step has succeeded
    write_weights(out / "weights-global.tsv", result.weights)
    if pc is not None:
        write_concept_weights(out / "weights-concepts.tsv", pc.per_concept, pc.fallbacks)
    _write_records(out / "learn.log", (map(str, row) for row in log_rows))
    print(f"wrote learned weights to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_OPTIONS: dict[str, Opt] = {
    "qrels": (str, REQUIRED),
    "out": (str, None),
    "cutoff": (_at_least_one, 100),
    "n_perm": (_at_least_one, 100000),
    "seed": (int, 0),
}


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _resolve(args, EVAL_OPTIONS)
    if not args.runs:
        raise CliError("eval requires at least one run file")
    qrels = read_qrels(str(opts["qrels"]))
    runs = [read_run(p) for p in args.runs]
    report = render_report(
        runs,
        qrels,
        cutoff=int(opts["cutoff"]),
        n_perm=int(opts["n_perm"]),
        seed=derive_seed(int(opts["seed"]), "randomization"),
    )
    if opts["out"]:
        out = Path(str(opts["out"]))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------
# list-presets
# ---------------------------------------------------------------------------


LIST_PRESETS_OPTIONS: dict[str, Opt] = {
    "features": (_names, "color,cslbp,gist,dsift"),
}


def cmd_list_presets(args: argparse.Namespace) -> int:
    opts = _resolve(args, LIST_PRESETS_OPTIONS)
    for name in available_presets(tuple(opts["features"])):
        print(name)
    return 0


# name -> (help, function, config-backed options, further add_argument calls)
COMMANDS: dict[str, tuple[str, Callable, dict[str, Opt], tuple]] = {
    "synth": ("generate a seeded synthetic collection + qrels", cmd_synth, SYNTH_OPTIONS, ()),
    "score": ("run a scoring preset, write a run file", cmd_score, SCORE_OPTIONS, ()),
    "learn": ("learn fusion weights from training qrels", cmd_learn, LEARN_OPTIONS, ()),
    "eval": (
        "evaluate run files against qrels", cmd_eval, EVAL_OPTIONS,
        (("runs", {"nargs": "*", "help": "run files to evaluate"}),),
    ),
    "list-presets": ("list every supported preset name", cmd_list_presets, LIST_PRESETS_OPTIONS, ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The tagfusion parser; only `command`'s arguments are added (all when None)."""
    parser = argparse.ArgumentParser(
        prog="tagfusion",
        description="tag relevance estimation, fusion, and retrieval evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if command in (None, name):
            _add_options(p, options)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


def _glue_negative_values(argv: list[str]) -> list[str]:
    """`argv` with `--key -1e-6` (or `-inf`, ...) written as `--key=-1e-6`: argparse
    would read such a value as an option, and the key's converter should judge it."""
    glued: list[str] = []
    for token in argv:
        option = glued and re.fullmatch(r"--[\w-]+", glued[-1])
        if option and re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(_glue_negative_values(argv))
    try:
        return int(args.func(args))
    except (CliError, ValueError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
