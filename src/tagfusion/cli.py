"""Command-line driver: synth, score, learn, eval, list-presets.

Any flag may also come from a config file of `key = value` lines (keys are
the long flag names, dashes or underscores); explicit flags win. All
randomness flows from the single --seed, split deterministically per
component, so identical invocations produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from .collection import (
    SyntheticConfig,
    SyntheticFeature,
    _read_lines,
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
    GradientConfig,
    _fit_pairs,
    _label_matrix,
    coordinate_ascent,
    learn_distance_weights_per_concept,
    learn_per_concept,
)
from .neighbors import calibrate_normalizers
from .presets import (
    ScoreSettings,
    available_presets,
    build_training_tables,
    derive_seed,
    score_preset,
)

DEFAULT_FEATURE_NAMES = ("color", "cslbp", "gist", "dsift")


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


# key -> (converter, default); shared across flag parsing and config files
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
    config: dict[str, tuple[int, str]] = {}
    if getattr(args, "config", None):
        config = read_config_file(args.config)
    for key, (no, _) in config.items():
        if key not in options:
            raise CliError(f"{args.config}:{no}: unknown config key {key!r}")
    resolved: dict[str, object] = {}
    for key, (convert, default) in options.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            no, value = config[key]
            try:
                resolved[key] = convert(value)
            except ValueError as exc:
                raise CliError(f"{args.config}:{no}: {key}: {exc}") from None
        else:
            resolved[key] = default
    return resolved


def _add_options(parser: argparse.ArgumentParser, options: dict[str, Opt]) -> None:
    parser.add_argument("--config", help="key = value file supplying any flag")
    for key, (convert, default) in options.items():
        flag = "--" + key.replace("_", "-")
        if convert is _bool:
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(flag, type=convert, default=None, metavar=str(default))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

SYNTH_OPTIONS: dict[str, Opt] = {
    "out": (str, None),
    "images": (int, 2000),
    "tags": (int, 20),
    "users": (int, 50),
    "features": (str, "visa:8,visb:8"),
    "informativeness": (str, "split"),
    "q_correct": (float, 0.9),
    "q_incorrect": (float, 0.05),
    "cluster_spread": (float, 0.05),
    "seed": (int, 0),
}


def _parse_synth_features(
    spec: str, tag_names: list[str], informativeness: str
) -> tuple[SyntheticFeature, ...]:
    parts = _csv(spec)
    if not parts:
        raise CliError("no features given")
    parsed: list[tuple[str, int]] = []
    for p in parts:
        if ":" not in p:
            raise CliError(f"feature spec {p!r} must be name:dim")
        name, dim_s = p.split(":", 1)
        try:
            dim = int(dim_s)
        except ValueError:
            raise CliError(f"bad dim in feature spec {p!r}") from None
        parsed.append((name, dim))
    m = len(parsed)
    features: list[SyntheticFeature] = []
    for i, (name, dim) in enumerate(parsed):
        if informativeness == "all":
            informative = None
        elif informativeness == "split":
            size = (len(tag_names) + m - 1) // m
            informative = frozenset(tag_names[i * size : (i + 1) * size])
        else:
            raise CliError(f"informativeness must be 'split' or 'all', got {informativeness!r}")
        features.append(SyntheticFeature(name=name, dim=dim, informative_tags=informative))
    return tuple(features)


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _resolve(args, SYNTH_OPTIONS)
    if not opts["out"]:
        raise CliError("synth requires --out")
    tag_names = synthetic_tag_names(int(opts["tags"]))
    features = _parse_synth_features(
        str(opts["features"]), tag_names, str(opts["informativeness"])
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
    out.mkdir(parents=True, exist_ok=True)
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

SCORE_OPTIONS: dict[str, Opt] = {
    "tags": (str, None),
    "features": (_csv, None),
    "preset": (str, None),
    "out": (str, None),
    "run_id": (str, None),
    "k": (int, 500),
    "query_tags": (_csv, None),
    "estimators": (_csv, None),
    "kde_feature": (str, None),
    "kde_sample_cap": (int, 500),
    "min_count": (int, 1),
    "calib_sample_size": (int, 10000),
    "weights": (str, None),
    "concept_weights": (str, None),
    "seed": (int, 0),
}


def _load_collection_opts(opts: dict[str, object]):
    if not opts["tags"] or not opts["features"]:
        raise CliError("--tags and --features (files) are required")
    return load_collection(str(opts["tags"]), [str(p) for p in opts["features"]])


def _settings_from(opts: dict[str, object], feature_names: tuple[str, ...]) -> ScoreSettings:
    weights = read_weights(str(opts["weights"])) if opts["weights"] else None
    concept_weights = None
    if opts["concept_weights"]:
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
        query_tags=tuple(opts["query_tags"]) if opts["query_tags"] else None,
    )


def cmd_score(args: argparse.Namespace) -> int:
    opts = _resolve(args, SCORE_OPTIONS)
    if not opts["preset"]:
        raise CliError("score requires --preset (see list-presets)")
    if not opts["out"]:
        raise CliError("score requires --out")
    collection = _load_collection_opts(opts)
    feature_names = tuple(collection.features)
    settings = _settings_from(opts, feature_names)
    preset = str(opts["preset"])
    known = available_presets(feature_names)
    if preset not in known:
        raise CliError(f"unknown preset {preset!r}; choose one of {known}")
    run = score_preset(collection, preset, settings, run_id=opts["run_id"] or None)
    out = Path(str(opts["out"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_run(out, run)
    print(f"wrote run {run.run_id!r} ({len(run.rankings)} tags) to {out}")
    return 0


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

LEARN_OPTIONS: dict[str, Opt] = {
    "tags": (str, None),
    "features": (_csv, None),
    "qrels": (str, None),
    "out": (str, None),
    "scheme": (str, "late"),
    "norm": (str, "minmax"),
    "estimators": (_csv, None),
    "metric": (str, "ap"),
    "cutoff": (int, 100),
    "per_concept": (_bool, False),
    "min_pos": (int, 1),
    "pairs": (int, 1000),
    "k": (int, 500),
    "kde_feature": (str, None),
    "kde_sample_cap": (int, 500),
    "min_count": (int, 1),
    "calib_sample_size": (int, 10000),
    "delta0": (float, 0.05),
    "growth": (float, 2.0),
    "line_steps": (int, 10),
    "tol": (float, 1e-6),
    "max_sweeps": (int, 50),
    "restarts": (int, 3),
    "seed": (int, 0),
}


def cmd_learn(args: argparse.Namespace) -> int:
    opts = _resolve(args, LEARN_OPTIONS)
    if not opts["qrels"]:
        raise CliError("learn requires --qrels (training judgments)")
    if not opts["out"]:
        raise CliError("learn requires --out")
    if opts["scheme"] not in ("late", "early"):
        raise CliError("--scheme must be late or early")
    if opts["norm"] not in ("minmax", "rankmax"):
        raise CliError("--norm must be minmax or rankmax")
    collection = _load_collection_opts(opts)
    qrels = read_qrels(str(opts["qrels"]))
    feature_names = tuple(collection.features)
    settings = _settings_from(
        {**opts, "weights": None, "concept_weights": None, "query_tags": None},
        feature_names,
    )
    out = Path(str(opts["out"]))
    log_lines: list[str] = []
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
        log_lines.append("# global")
        for sweep, coord, weight, objective in result.trace:
            log_lines.append(f"{sweep}\t{coord}\t{weight!r}\t{objective!r}")
        if opts["per_concept"]:
            pc = learn_per_concept(
                tables, qrels, cfg,
                min_pos=int(opts["min_pos"]),
                global_weights=result.weights,
            )
            for tag in sorted(pc.traces):
                log_lines.append(f"# concept {tag}")
                for sweep, coord, weight, objective in pc.traces[tag]:
                    log_lines.append(f"{sweep}\t{coord}\t{weight!r}\t{objective!r}")
    else:
        normalizers = calibrate_normalizers(
            collection,
            feature_names,
            mode="minmax",
            sample_size=int(opts["calib_sample_size"]),
            seed=derive_seed(int(opts["seed"]), "calibration"),
        )
        gcfg = GradientConfig()
        rows, labels = _label_matrix(qrels, collection)
        result = _fit_pairs(
            collection, rows, labels, feature_names, normalizers,
            int(opts["pairs"]), derive_seed(int(opts["seed"]), "pairs"), gcfg,
        )
        log_lines.append("# global")
        for it, wvec in enumerate(result.weight_trace, start=1):
            for name, w in zip(feature_names, wvec):
                log_lines.append(f"{it}\t{name}\t{w!r}\t{result.trace[it]!r}")
        if opts["per_concept"]:
            pc = learn_distance_weights_per_concept(
                collection, qrels.tags(), rows, labels, feature_names, normalizers,
                n_pairs=int(opts["pairs"]),
                min_pos=int(opts["min_pos"]),
                seed=derive_seed(int(opts["seed"]), "pairs-per-concept"),
                config=gcfg,
                global_weights=result.weights,
            )

    # nothing is written until every step has succeeded
    out.mkdir(parents=True, exist_ok=True)
    write_weights(out / "weights-global.tsv", result.weights)
    if pc is not None:
        write_concept_weights(out / "weights-concepts.tsv", pc.per_concept, pc.fallbacks)
    with open(out / "learn.log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    print(f"wrote learned weights to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_OPTIONS: dict[str, Opt] = {
    "qrels": (str, None),
    "out": (str, None),
    "cutoff": (int, 100),
    "n_perm": (int, 100000),
    "seed": (int, 0),
}


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _resolve(args, EVAL_OPTIONS)
    if not opts["qrels"]:
        raise CliError("eval requires --qrels")
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


def cmd_list_presets(args: argparse.Namespace) -> int:
    features = tuple(args.features) if args.features else DEFAULT_FEATURE_NAMES
    for name in available_presets(features):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagfusion",
        description="tag relevance estimation, fusion, and retrieval evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic collection + qrels")
    _add_options(p_synth, SYNTH_OPTIONS)
    p_synth.set_defaults(func=cmd_synth)

    p_score = sub.add_parser("score", help="run a scoring preset, write a run file")
    _add_options(p_score, SCORE_OPTIONS)
    p_score.set_defaults(func=cmd_score)

    p_learn = sub.add_parser("learn", help="learn fusion weights from training qrels")
    _add_options(p_learn, LEARN_OPTIONS)
    p_learn.set_defaults(func=cmd_learn)

    p_eval = sub.add_parser("eval", help="evaluate run files against qrels")
    _add_options(p_eval, EVAL_OPTIONS)
    p_eval.add_argument("runs", nargs="*", help="run files to evaluate")
    p_eval.set_defaults(func=cmd_eval)

    p_list = sub.add_parser("list-presets", help="list every supported preset name")
    p_list.add_argument("--features", type=_csv, default=None, metavar="color,cslbp,...")
    p_list.set_defaults(func=cmd_list_presets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
