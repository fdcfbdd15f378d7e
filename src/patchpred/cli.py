"""Command-line pipeline: each subcommand reads and writes the documented
file formats, so stages can be rerun and resumed independently.

Every flag is declared once, in COMMANDS. A flag given on the command line
wins over the --config entry of the same (long) name, which wins over the
flag's default. Every JSON artifact embeds the effective configuration and
seed; CSV artifacts get a .meta.json sidecar with the same provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import corpus as corpus_mod
from . import diffparse, embed, engineered, evaluate, explain, featureio, fileio, filtering, learn, synth
from .defaults import check_seed
from .errors import EmbeddingError, EvalError, ExplainError, FeatureError, PatchPredError, TrainError


class Flag(NamedTuple):
    """One subcommand flag. `output` marks a path that goes under the output
    directory when relative; `required` means flag or config must supply it."""

    name: str
    type: Callable = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    output: bool = False
    help: str | None = None
    metavar: str | None = None


# What a config entry may be for each flag type: a float flag takes a number
# and an int flag an integer, as fileio.is_number has them (true and false
# are neither).
_CONFIG_TYPES = {str: lambda v: isinstance(v, str), int: lambda v: fileio.is_number(v, integer=True),
                 float: fileio.is_number, bool: lambda v: isinstance(v, bool)}


def resolve(args, cfg) -> None:
    """Set each flag of the subcommand to the flag's value if given, else its
    config entry, else its default; then place relative output paths under
    $PATCHPRED_OUTDIR (or the config's "outdir")."""
    base = os.environ.get("PATCHPRED_OUTDIR") or cfg.get("outdir")
    for flag in COMMANDS[args.command][2]:
        dest = flag.name.replace("-", "_")
        value = getattr(args, dest)
        if value is None and cfg.get(flag.name) is not None:
            value = cfg[flag.name]
            if not _CONFIG_TYPES[flag.type](value):
                raise PatchPredError(f"config entry {flag.name!r} must be a {flag.type.__name__}, got {value!r}")
        if value is None:
            value = flag.default
        if value is None and flag.required:
            raise PatchPredError(f"missing required --{flag.name} (flag or config file entry)")
        if value is not None and flag.choices and value not in flag.choices:
            raise PatchPredError(f"--{flag.name} must be one of {'|'.join(flag.choices)}, got {value!r}")
        if value is not None and flag.output and base and not Path(value).is_absolute():
            value = str(Path(base) / value)
        setattr(args, dest, value)


def _write(path, content, args=None, keys=()) -> None:
    """Write one artifact, creating its directory. `content` is a JSON object,
    or a function that writes the file itself.

    With `args`, the provenance (the command and the values of `keys`) is
    embedded in a JSON object, or written to a .meta.json sidecar otherwise.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    provenance = None
    if args is not None:
        provenance = {"command": args.command, "config": {k: getattr(args, k) for k in keys}}
    if isinstance(content, dict):
        fileio.write(path, {"provenance": provenance, **content} if provenance else content, indent=1)
        return
    content(path)
    if provenance:
        _write(str(path) + ".meta.json", {"provenance": provenance})


def _embedder_config(args, cfg) -> embed.EmbedderConfig:
    given = cfg.get("embedder", {})
    if not isinstance(given, dict):
        raise EmbeddingError(f'config "embedder" must be a JSON object, got {given!r}')
    known = sorted(field.name for field in dataclasses.fields(embed.EmbedderConfig))
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise EmbeddingError(f"unknown embedder setting(s) {unknown}; known: {known}")
    section = dict(given)
    for flag, key in (("dim", "n"), ("epochs", "epochs"), ("negative", "negative_samples"),
                      ("lr", "learning_rate"), ("min_count", "min_token_count"),
                      ("embedder_seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            section[key] = value
    return embed.EmbedderConfig(**section)


def _hyper_overrides(args, cfg, kind: str):
    table = cfg.get("hyperparameters", {})
    if not isinstance(table, dict):
        raise TrainError(f'config "hyperparameters" must be a JSON object, got {table!r}')
    overrides = table.get(kind, {})
    if not isinstance(overrides, dict):
        raise TrainError(f'config "hyperparameters" entry {kind!r} must be a JSON object, got {overrides!r}')
    overrides = dict(overrides)
    if args.hyper:
        try:
            inline = json.loads(args.hyper)
        except (TypeError, ValueError) as exc:
            raise TrainError(f"--hyper is not valid JSON: {exc}") from exc
        if not isinstance(inline, dict):
            raise TrainError("--hyper must be a JSON object")
        overrides.update(inline)
    return overrides or None


def _fragments_by_patch(cor):
    return {rec.patch_id: diffparse.fragments_for_diff(rec.diff_text) for rec in cor.records}


def _scored(args):
    """(patch_id, bug_id, score, label, zero-norm flag) per embedding, in file order."""
    cor, _ = corpus_mod.ingest(args.corpus)
    pairs = embed.import_embeddings(args.embeddings)
    matched = featureio.align(pairs, cor.records, ("embeddings", "corpus"), complete=False)
    return [(pid, rec.bug_id, score, rec.label, flag)
            for (pid, score, flag), (_pair, rec) in zip(filtering.score_corpus(pairs), matched)]


def _write_report(args, report, keys, title) -> None:
    """Write a cross-validation report and its optional predictions CSV."""
    predictions = report.pop("predictions")
    _write(args.out, report, args, keys)
    if args.out_predictions:
        _write(args.out_predictions, lambda path: evaluate.write_predictions(path, predictions), args, keys)
    macro = report["macro"]
    print(f"{title} k={args.k} seed={args.seed}: "
          f"acc {macro['accuracy']:.3f}, F1 {macro['f1']:.3f}, AUC {macro['auc']:.3f} -> {args.out}")


# --- subcommand implementations ----------------------------------------------

def cmd_ingest(args, cfg):
    cor, report = corpus_mod.ingest(args.input, allow_unlabeled=bool(args.allow_unlabeled))
    _write(args.out, lambda path: corpus_mod.persist(cor, path))
    if args.report:
        _write(args.report, {"report": report.to_json_dict()}, args, ("input", "out"))
    print(f"ingested {report.ingested} records "
          f"({report.duplicates_dropped} duplicates dropped, {len(report.rejected)} rejected) -> {args.out}")
    return 0


def cmd_gen_synthetic(args, cfg):
    cor = synth.generate_corpus(args.bugs, args.patches_per_bug, args.signal, args.seed)
    _write(args.out, lambda path: corpus_mod.persist(cor, path))
    print(f"generated {len(cor)} patches over {args.bugs} bugs "
          f"(signal={args.signal}, seed={args.seed}) -> {args.out}")
    return 0


def cmd_fragments(args, cfg):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    fragments = _fragments_by_patch(cor)
    _write(args.out, lambda path: fileio.write_lines(path, (
        {"patch_id": pid, "buggy_text": frag.buggy_text, "patched_text": frag.patched_text}
        for pid, frag in fragments.items())))
    print(f"wrote fragments for {len(cor)} patches -> {args.out}")
    return 0


def cmd_train_embedder(args, cfg):
    config = _embedder_config(args, cfg)
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    documents = [list(tokens) for frag in _fragments_by_patch(cor).values()
                 for tokens in (frag.buggy_tokens, frag.patched_tokens)]
    model = embed.train_embedder(documents, config)
    _write(args.out, lambda path: embed.save_model(model, path))
    rep = model.training_report
    print(f"trained embedder on {rep['documents']} fragments "
          f"(vocab {rep['vocabulary_size']}, loss {rep['initial_loss']:.4f} -> {rep['final_loss']:.4f}) -> {args.out}")
    return 0


def cmd_embed(args, cfg):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    model = embed.load_model(args.model)
    pairs, flagged = embed.embed_corpus(model, _fragments_by_patch(cor))
    _write(args.out, lambda path: embed.export_embeddings(pairs, path))
    note = f", {len(flagged)} flagged all-OOV" if flagged else ""
    print(f"embedded {len(pairs)} patches (n={model.config.n}{note}) -> {args.out}")
    return 0


def cmd_import_embeddings(args, cfg):
    pairs = embed.import_embeddings(args.embeddings)
    if args.out:
        _write(args.out, lambda path: embed.export_embeddings(pairs, path))
    print(f"validated {len(pairs)} embedding pairs (n={pairs[0].n})")
    return 0


def cmd_features(args, cfg):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    keys = ("corpus", "set", "out")
    pairs = None
    if args.set != "engineered":
        if args.embeddings is None:
            raise PatchPredError(f"missing required --embeddings for --set {args.set} (flag or config file entry)")
        pairs = embed.import_embeddings(args.embeddings)
        keys += ("embeddings",)
    names, rows = featureio.corpus_features(cor, args.set, pairs)
    _write(args.out, lambda path: featureio.write_features(path, rows, names), args, keys)
    if args.registry_out and args.set != "learned":
        _write(args.registry_out, {"version": engineered.REGISTRY_VERSION, "features": engineered.registry()})
    print(f"wrote {len(rows)} x {len(names)} {args.set} feature matrix -> {args.out}")
    return 0


def cmd_stats(args, cfg):
    scored = _scored(args)
    scores = [s for _pid, _bug, s, label, _f in scored if args.label_filter in ("all", label.value)]
    sim = filtering.stats(scores)
    _write(args.out, {
        "n_scores": len(scores),
        "flagged_zero_norm": sorted(pid for pid, _b, _s, _l, flag in scored if flag),
        "stats": sim.to_json_dict(),
    }, args, ("corpus", "embeddings", "label_filter"))
    print(f"stats over {len(scores)} {args.label_filter} scores: q1={sim.q1:.4f} mean={sim.mean:.4f} -> {args.out}")
    return 0


def cmd_filter(args, cfg):
    scored = _scored(args)
    sim = None
    if args.stats:  # the six numbers of a stats report
        stats = fileio.read_object(args.stats, EvalError, "stats report").get("stats")
        try:
            sim = filtering.SimilarityStats(**{k: float(fileio.numbers(v, k, ())) for k, v in stats.items()})
        except (AttributeError, TypeError, ValueError) as exc:
            raise EvalError(f"{args.stats}: not a valid stats report: {exc}") from exc
    policy = filtering.resolve_policy(args.policy, sim, args.value)
    report = filtering.filter_by_threshold([(pid, score, label) for pid, _b, score, label, _f in scored], policy)
    keys = ("corpus", "embeddings", "policy", "stats")
    _write(args.out, {"stats": sim.to_json_dict() if sim else None, "result": report.to_json_dict()}, args, keys)
    if args.out_verdicts:
        _write(args.out_verdicts, lambda path: fileio.write_csv(
            path, ["patch_id", "predicted_correct"], ([pid, int(predicted)] for pid, predicted in report.verdicts)),
            args, keys)
    print(f"threshold {policy.value:.4f} ({policy.statistic.value}): "
          f"+Recall {report.plus_recall:.1%}, -Recall {report.minus_recall:.1%} -> {args.out}")
    return 0


def cmd_top1(args, cfg):
    report = filtering.top1_per_bug([(pid, bug, score, label) for pid, bug, score, label, _f in _scored(args)])
    _write(args.out, {
        "n_bugs": report.n_bugs,
        "bugs_with_correct_pick": report.bugs_with_correct_pick,
        "fraction_correct": report.fraction_correct,
        "selected": report.selected,
    }, args, ("corpus", "embeddings"))
    print(f"top-1 pick correct for {report.bugs_with_correct_pick}/{report.n_bugs} bugs -> {args.out}")
    return 0


def cmd_train(args, cfg):
    names, rows = featureio.read_features(args.features)
    kind = learn.canonical_kind(args.learner)
    model = learn.train(kind, rows, _hyper_overrides(args, cfg, kind), args.seed)
    _write(args.out, model.save)
    print(f"trained {kind} on {len(rows)} rows x {len(names)} features (seed {args.seed}) -> {args.out}")
    return 0


def cmd_crossval(args, cfg):
    _names, rows = featureio.read_features(args.features)
    args.learner = learn.canonical_kind(args.learner)
    # The features come pre-built from the CSV.
    trainer = evaluate.SingleSetTrainer("file", args.learner, _hyper_overrides(args, cfg, args.learner))
    report = evaluate.crossval(rows, trainer, k=args.k, seed=args.seed, threshold=args.threshold)
    _write_report(args, report, ("features", "learner", "k", "seed", "threshold"), f"crossval {args.learner}")
    return 0


def cmd_combine(args, cfg):
    args.learner = kind = learn.canonical_kind(args.learner)
    _lnames, _enames, joint = featureio.join_feature_sets(args.learned_features, args.engineered_features)
    if args.strategy == "fusion":
        trainer = evaluate.FusionTrainer(_hyper_overrides(args, cfg, "DeepFusion"))
    elif args.strategy == "ensemble":
        trainer = evaluate.EnsembleTrainer(kind, _hyper_overrides(args, cfg, kind))
    else:
        trainer = evaluate.SingleSetTrainer("concat", kind, _hyper_overrides(args, cfg, kind))
    report = evaluate.crossval(joint, trainer, k=args.k, seed=args.seed, threshold=args.threshold)
    _write_report(args, report, ("strategy", "learner", "k", "seed", "threshold",
                                 "learned_features", "engineered_features"), f"combine {args.strategy}")
    return 0


def cmd_explain(args, cfg):
    if args.background_cap < 1:
        raise ExplainError(f"--background-cap must be at least 1, got {args.background_cap}")
    check_seed(args.seed, ExplainError, "--seed")  # the background subsample's
    model = learn.load(args.model)
    names, rows = featureio.read_features(args.features)
    if args.interaction:
        pair = args.interaction.split(",")
        if len(pair) != 2:
            raise ExplainError(f"--interaction takes two feature names A,B, got {args.interaction!r}")
        for name in pair:
            if name not in names:
                raise FeatureError(f"--interaction names {name!r}, which is not a column of {args.features}")
    data = learn.Dataset.of(rows)
    background = data.X
    if args.background:
        bnames, brows = featureio.read_features(args.background)
        if bnames != names:
            raise FeatureError(f"background {args.background} has other feature columns than {args.features}")
        background = learn.Dataset.of(brows).X
    if len(background) > args.background_cap:
        idx = np.sort(np.random.default_rng(args.seed).choice(len(background), size=args.background_cap,
                                                              replace=False))
        background = background[idx]
    targets = [i for i, pid in enumerate(data.patch_ids) if args.patch_id in (None, pid)]
    if not targets:
        raise PatchPredError(f"patch {args.patch_id!r} not found in the feature file")
    X = data.X[targets]
    keys = ("model", "features", "background", "background_cap", "seed", "patch_id")
    explanations = explain.explain_rows(model, X, background, [data.patch_ids[i] for i in targets])
    space = explanations[0].space
    if args.interaction:  # before any file is written: an lr model refuses it
        ia, ib = names.index(pair[0]), names.index(pair[1])
        values = [{"patch_id": exp.patch_id,
                   "value": explain.interaction_pairs(model, x, ia, ib, background)}
                  for exp, x in zip(explanations, X)]
    if args.out:
        _write(args.out, lambda path: fileio.write_csv(
            path, ["patch_id", "feature_name", "contribution"],
            ([exp.patch_id, name, repr(float(value))]
             for exp in explanations for name, value in zip(names, exp.contributions))), args, keys)
    if args.global_out:
        gi = explain.rank_importance(explanations, names)
        _write(args.global_out, {
            "space": gi.space,
            "ranking": [{"feature": n, "mean_abs_contribution": v} for n, v in gi.ranking],
            "blocks": explain.block_totals(gi),
        }, args, keys)
    if args.interaction:
        _write(args.interaction_out, {"pair": pair, "space": space, "values": values}, args, keys)
    if args.plot_data:
        _write(args.plot_data, {
            "space": space,
            "features": names,
            "points": [{"patch_id": exp.patch_id,
                        "values": [float(v) for v in x],
                        "contributions": [float(c) for c in exp.contributions]}
                       for exp, x in zip(explanations, X)],
        }, args, keys)
    print(f"explained {len(explanations)} predictions in {space} space"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def cmd_compare(args, cfg):
    preds_a = evaluate.read_predictions(args.a)
    preds_b = evaluate.read_predictions(args.b, {p["patch_id"]: p["label"] for p in preds_a})
    report = evaluate.compare_predictions(preds_a, preds_b, args.threshold)
    _write(args.out, {"overlap": report}, args, ("a", "b"))
    cp = report["correct_patches"]
    print(f"correct patches: both {cp['both']}, only-a {cp['only_a']}, only-b {cp['only_b']}, "
          f"neither {cp['neither']} -> {args.out}")
    return 0


# --- argument wiring ----------------------------------------------------------

OUT = Flag("out", required=True, output=True)
CORPUS = Flag("corpus", required=True)
EMBEDDINGS = Flag("embeddings", required=True)
FEATURES = Flag("features", required=True)
LEARNER = Flag("learner", default="gbt")
SEED = Flag("seed", int, 0)
K = Flag("k", int, 10)
THRESHOLD = Flag("threshold", float, 0.5)
HYPER = Flag("hyper", help="inline JSON hyperparameter overrides")

# subcommand -> (implementation, help, flags in --help order)
COMMANDS = {
    "ingest": (cmd_ingest, "validate and deduplicate a JSONL corpus", [
        Flag("input", required=True, help="input corpus JSONL"),
        OUT,
        Flag("report", output=True, help="write the ingest report JSON here"),
        Flag("allow-unlabeled", bool, False),
    ]),
    "gen-synthetic": (cmd_gen_synthetic, "generate a labeled synthetic corpus", [
        Flag("bugs", int, 40),
        Flag("patches-per-bug", int, 5),
        Flag("signal", default="learned", choices=synth.SIGNALS),
        SEED,
        OUT,
    ]),
    "fragments": (cmd_fragments, "extract flattened buggy/patched fragments", [CORPUS, OUT]),
    "train-embedder": (cmd_train_embedder, "train the paragraph-vector embedder", [
        CORPUS,
        OUT,
        Flag("dim", int),
        Flag("epochs", int),
        Flag("negative", int),
        Flag("lr", float),
        Flag("min-count", int),
        Flag("embedder-seed", int),
    ]),
    "embed": (cmd_embed, "embed corpus fragments with a trained model", [
        CORPUS, Flag("model", required=True), OUT,
    ]),
    "import-embeddings": (cmd_import_embeddings, "validate externally computed vectors", [
        EMBEDDINGS,
        Flag("out", output=True, help="optionally rewrite the validated file"),
    ]),
    "features": (cmd_features, "build a feature matrix CSV", [
        CORPUS,
        Flag("embeddings"),
        Flag("set", default="learned", choices=("learned", "engineered", "concat")),
        OUT,
        Flag("registry-out", output=True, help="write the engineered-feature registry JSON here"),
    ]),
    "stats": (cmd_stats, "similarity-score distribution statistics", [
        CORPUS,
        EMBEDDINGS,
        Flag("label-filter", default="correct", choices=("correct", "incorrect", "all")),
        OUT,
    ]),
    "filter": (cmd_filter, "filter patches by a similarity threshold", [
        CORPUS,
        EMBEDDINGS,
        Flag("stats", help="stats JSON from a training corpus"),
        Flag("policy", default="q1", choices=("q1", "mean", "median", "fixed")),
        Flag("value", float, help="threshold for --policy fixed"),
        OUT,
        Flag("out-verdicts", output=True, help="per-patch verdict CSV"),
    ]),
    "top1": (cmd_top1, "keep each bug's top-scoring patch as correct", [CORPUS, EMBEDDINGS, OUT]),
    "train": (cmd_train, "train one classifier on a feature CSV", [FEATURES, LEARNER, SEED, HYPER, OUT]),
    "crossval": (cmd_crossval, "bug-disjoint k-group cross-validation", [
        FEATURES, LEARNER, K, SEED, THRESHOLD, HYPER, OUT,
        Flag("out-predictions", output=True, help="out-of-fold prediction CSV"),
    ]),
    "combine": (cmd_combine, "evaluate a learned+engineered combination strategy", [
        Flag("strategy", default="concat", choices=("ensemble", "concat", "fusion")),
        LEARNER,
        Flag("learned-features", required=True),
        Flag("engineered-features", required=True),
        K, SEED, THRESHOLD, HYPER, OUT,
        Flag("out-predictions", output=True),
    ]),
    "explain": (cmd_explain, "Shapley attributions for a trained model", [
        Flag("model", required=True),
        FEATURES,
        Flag("background", help="background feature CSV (default: --features)"),
        Flag("background-cap", int, 512),
        SEED,
        Flag("patch-id", help="explain a single patch"),
        Flag("out", output=True, help="per-instance contribution CSV"),
        Flag("global-out", output=True, help="ranked global importance JSON"),
        Flag("interaction", metavar="A,B", help="feature pair for interaction values"),
        Flag("interaction-out", default="interactions.json", output=True),
        Flag("plot-data", output=True, help="per-instance value/contribution JSON for plotting"),
    ]),
    "compare": (cmd_compare, "overlap counts between two prediction CSVs", [
        Flag("a", required=True), Flag("b", required=True), THRESHOLD, OUT,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchpred",
        description="Predict program-repair patch correctness from static features.",
    )
    parser.add_argument("--config", help="JSON config file with defaults for any flag")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            # Every parsed default is None, so resolve() can tell an absent flag from a given one.
            if flag.type is bool:
                p.add_argument(f"--{flag.name}", action="store_true", default=None, help=flag.help)
            else:
                p.add_argument(f"--{flag.name}", type=flag.type, choices=flag.choices,
                               help=flag.help, metavar=flag.metavar)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = fileio.read_object(args.config, PatchPredError, "config file") if args.config else {}
        resolve(args, cfg)
        return COMMANDS[args.command][0](args, cfg)
    except PatchPredError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
