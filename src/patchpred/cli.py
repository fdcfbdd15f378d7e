"""Command-line pipeline: each subcommand reads and writes the documented
file formats, so stages can be rerun and resumed independently.

Every flag is declared once, in COMMANDS. A flag given on the command line
wins over the --config entry of the same (long) name, which wins over the
flag's default. A report's provenance is the resolved value of every flag
its command declares but the output paths, embedded in a JSON report or in
the .meta.json sidecar of a CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import corpus as corpus_mod
from . import diffparse, embed, engineered, evaluate, explain, featureio, fileio, filtering, learn, synth
from .defaults import HYPERPARAMETER_CHECKS, resolved_config
from .errors import EvalError, FeatureError, PatchPredError, UsageError


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
    rule: tuple | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


# (test, what passes) for a value of each flag type, from the command line or
# --config alike: numbers as fileio.is_number has them (true, NaN and inf are none).
_TYPE_RULES = {str: (lambda v: isinstance(v, str), "a string"), bool: (lambda v: isinstance(v, bool), "true or false"),
               int: (lambda v: fileio.is_number(v, integer=True), "an integer"), float: (fileio.is_number, "a number")}


def _rule(flag: Flag) -> tuple:
    """The (test, what passes) of `flag`: its rule, else its choices', else its type's."""
    if flag.rule or not flag.choices:
        return flag.rule or _TYPE_RULES[flag.type]
    return (lambda v: v in flag.choices), f"one of {'|'.join(flag.choices)}"


# Each name --learner takes -> its learner's canonical name; "hyperparameters" keys take DeepFusion too.
_LEARNERS = {**learn.KIND_ALIASES, **{kind: kind for kind in learn.KIND_ALIASES.values()}}


def _json_object(value) -> bool:
    """Whether `value` is text holding a JSON object."""
    with contextlib.suppress(ValueError, RecursionError):
        return isinstance(value, str) and isinstance(json.loads(value), dict)
    return False


def _hyperparameters(table) -> dict:
    """The config's "hyperparameters" by canonical learner name, each entry
    checked by its learner's rules (TrainError) whichever learner runs."""
    names = {**_LEARNERS, "DeepFusion": "DeepFusion"}
    if not isinstance(table, dict) or not all(isinstance(entry, dict) for entry in table.values()):
        raise UsageError(f'config entry "hyperparameters" must map learner names to JSON objects, got {table!r}')
    for key in table:
        if key not in names:
            raise UsageError(f'"hyperparameters" key {key!r} names no learner: one of {"|".join(names)}')
        if [names.get(k) for k in table].count(names[key]) > 1:
            raise UsageError(f'"hyperparameters" keys {[k for k in table if names.get(k) == names[key]]} '
                             f"name one learner, {names[key]}")
        resolved_config(names[key], table[key])
    return {names[key]: entry for key, entry in table.items()}


def resolve(args, cfg) -> None:
    """The one reader of the config object `cfg`: set each flag of the
    subcommand to the flag's value if given, else its config entry, else its
    default, and check it by its one rule (UsageError); place relative output
    paths under $PATCHPRED_OUTDIR (or the config's "outdir"). A learner's
    command gets its canonical name and, as a dict, its "hyperparameters"
    entry (DeepFusion's for --strategy fusion) updated by --hyper."""
    unknown = sorted(set(cfg) - {"outdir", "hyperparameters", *(f.name for c in COMMANDS.values() for f in c[2])})
    if unknown:
        raise UsageError(f"unknown config entries {unknown}: an entry is a flag's name, outdir or hyperparameters"
                         + ("; the embedder's settings are the entries dim, epochs, negative, lr, min-count and "
                            "embedder-seed" if "embedder" in unknown else ""))
    if not isinstance(cfg.get("outdir"), (str, type(None))):
        raise UsageError(f'config entry "outdir" must be a string, got {cfg["outdir"]!r}')
    base = os.environ.get("PATCHPRED_OUTDIR") or cfg.get("outdir")
    for flag in COMMANDS[args.command][2]:
        value = text = getattr(args, flag.dest)
        # As JSON reads a number: an int if the text spells one, else a float (NaN and inf too), else text.
        if isinstance(text, str) and flag.type in (int, float) and fileio.number_text(text):
            with contextlib.suppress(ValueError):
                value = float(text)
                value = int(text)
        value = next((v for v in (value, cfg.get(flag.name), flag.default) if v is not None), None)
        if value is None and flag.required:
            raise UsageError(f"missing required --{flag.name} (flag or config file entry)")
        if value is not None:
            valid, what = _rule(flag)
            if not valid(value):
                raise UsageError(f"--{flag.name} must be {what}, got {value!r}")
            value = float(value) if flag.type is float else value  # 1 is 1.0 for a float flag, from either source
            if flag.output and base and not Path(value).is_absolute():
                value = str(Path(base) / value)
        setattr(args, flag.dest, value)
    hyperparameters = _hyperparameters(cfg.get("hyperparameters", {}))
    if hasattr(args, "learner"):
        args.learner = _LEARNERS[args.learner]
        learner = "DeepFusion" if getattr(args, "strategy", None) == "fusion" else args.learner
        args.hyper = {**hyperparameters.get(learner, {}), **json.loads(args.hyper or "{}")}


def _write(path, content, args=None) -> None:
    """Write one artifact, creating its directory. `content` is a JSON object,
    or a function that writes the file itself.

    With `args`, the provenance (the command and the resolved value of every
    flag it declares but its output paths) is embedded in a JSON object, or
    written to a .meta.json sidecar otherwise.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    provenance = None
    if args is not None:
        provenance = {"command": args.command, "config": {
            flag.dest: getattr(args, flag.dest) for flag in COMMANDS[args.command][2] if not flag.output}}
    if isinstance(content, dict):
        fileio.write(path, {"provenance": provenance, **content} if provenance else content, indent=1)
        return
    content(path)
    if provenance:
        _write(str(path) + ".meta.json", {"provenance": provenance})


def _embedder_config(args) -> embed.EmbedderConfig:
    flags = {"n": args.dim, "epochs": args.epochs, "negative_samples": args.negative, "learning_rate": args.lr,
             "min_token_count": args.min_count, "seed": args.embedder_seed}
    return embed.EmbedderConfig(**{key: value for key, value in flags.items() if value is not None})


def _fragments_by_patch(cor):
    return {rec.patch_id: diffparse.fragments_for_diff(rec.diff_text) for rec in cor.records}


def _scored(args):
    """(patch_id, bug_id, score, label, zero-norm flag) per embedding, in file order."""
    cor, _ = corpus_mod.ingest(args.corpus)
    pairs = embed.import_embeddings(args.embeddings)
    matched = featureio.align(pairs, cor.records, ("embeddings", "corpus"), complete=False)
    return [(pid, rec.bug_id, score, rec.label, flag)
            for (pid, score, flag), (_pair, rec) in zip(filtering.score_corpus(pairs), matched)]


def _write_report(args, report, title) -> None:
    """Write a cross-validation report and its optional predictions CSV; an
    undefined macro metric prints as n/a."""
    predictions = report.pop("predictions")
    _write(args.out, report, args)
    if args.out_predictions:
        _write(args.out_predictions, lambda path: evaluate.write_predictions(path, predictions), args)
    acc, f1, auc = ("n/a" if v is None else f"{v:.3f}" for v in map(report["macro"].get, ("accuracy", "f1", "auc")))
    print(f"{title} k={args.k} seed={args.seed}: acc {acc}, F1 {f1}, AUC {auc} -> {args.out}")


# --- subcommand implementations ----------------------------------------------

def cmd_ingest(args):
    cor, report = corpus_mod.ingest(args.input, allow_unlabeled=bool(args.allow_unlabeled))
    _write(args.out, lambda path: corpus_mod.persist(cor, path))
    if args.report:
        _write(args.report, {"report": report.to_json_dict()}, args)
    print(f"ingested {report.ingested} records "
          f"({report.duplicates_dropped} duplicates dropped, {len(report.rejected)} rejected) -> {args.out}")


def cmd_gen_synthetic(args):
    cor = synth.generate_corpus(args.bugs, args.patches_per_bug, args.signal, args.seed)
    _write(args.out, lambda path: corpus_mod.persist(cor, path))
    print(f"generated {len(cor)} patches over {args.bugs} bugs "
          f"(signal={args.signal}, seed={args.seed}) -> {args.out}")


def cmd_fragments(args):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    fragments = _fragments_by_patch(cor)
    _write(args.out, lambda path: fileio.write_lines(path, (
        {"patch_id": pid, "buggy_text": frag.buggy_text, "patched_text": frag.patched_text}
        for pid, frag in fragments.items())))
    print(f"wrote fragments for {len(cor)} patches -> {args.out}")


def cmd_train_embedder(args):
    config = _embedder_config(args)
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    documents = [list(tokens) for frag in _fragments_by_patch(cor).values()
                 for tokens in (frag.buggy_tokens, frag.patched_tokens)]
    model = embed.train_embedder(documents, config)
    _write(args.out, lambda path: embed.save_model(model, path))
    rep = model.training_report
    print(f"trained embedder on {rep['documents']} fragments "
          f"(vocab {rep['vocabulary_size']}, loss {rep['initial_loss']:.4f} -> {rep['final_loss']:.4f}) -> {args.out}")


def cmd_embed(args):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    model = embed.load_model(args.model)
    pairs, flagged = embed.embed_corpus(model, _fragments_by_patch(cor))
    _write(args.out, lambda path: embed.export_embeddings(pairs, path))
    note = f", {len(flagged)} flagged all-OOV" if flagged else ""
    print(f"embedded {len(pairs)} patches (n={model.config.n}{note}) -> {args.out}")


def cmd_import_embeddings(args):
    pairs = embed.import_embeddings(args.embeddings)
    if args.out:
        _write(args.out, lambda path: embed.export_embeddings(pairs, path))
    print(f"validated {len(pairs)} embedding pairs (n={pairs[0].n})")


def cmd_features(args):
    cor, _ = corpus_mod.ingest(args.corpus, allow_unlabeled=True)
    pairs = None
    if args.set != "engineered":
        if args.embeddings is None:
            raise UsageError(f"missing required --embeddings for --set {args.set} (flag or config file entry)")
        pairs = embed.import_embeddings(args.embeddings)
    names, rows = featureio.corpus_features(cor, args.set, pairs)
    _write(args.out, lambda path: featureio.write_features(path, rows, names), args)
    if args.registry_out and args.set != "learned":
        _write(args.registry_out, {"version": engineered.REGISTRY_VERSION, "features": engineered.registry()})
    print(f"wrote {len(rows)} x {len(names)} {args.set} feature matrix -> {args.out}")


def cmd_stats(args):
    scored = _scored(args)
    scores = [s for _pid, _bug, s, label, _f in scored if args.label_filter in ("all", label.value)]
    sim = filtering.stats(scores)
    _write(args.out, {
        "n_scores": len(scores),
        "flagged_zero_norm": sorted(pid for pid, _b, _s, _l, flag in scored if flag),
        "stats": sim.to_json_dict(),
    }, args)
    print(f"stats over {len(scores)} {args.label_filter} scores: q1={sim.q1:.4f} mean={sim.mean:.4f} -> {args.out}")


def cmd_filter(args):
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
    _write(args.out, {"stats": sim.to_json_dict() if sim else None, "result": report.to_json_dict()}, args)
    if args.out_verdicts:
        _write(args.out_verdicts, lambda path: fileio.write_csv(
            path, ["patch_id", "predicted_correct"], ([pid, int(predicted)] for pid, predicted in report.verdicts)),
            args)
    print(f"threshold {policy.value:.4f} ({policy.statistic.value}): "
          f"+Recall {report.plus_recall:.1%}, -Recall {report.minus_recall:.1%} -> {args.out}")


def cmd_top1(args):
    report = filtering.top1_per_bug([(pid, bug, score, label) for pid, bug, score, label, _f in _scored(args)])
    _write(args.out, {
        "n_bugs": report.n_bugs,
        "bugs_with_correct_pick": report.bugs_with_correct_pick,
        "fraction_correct": report.fraction_correct,
        "selected": report.selected,
    }, args)
    print(f"top-1 pick correct for {report.bugs_with_correct_pick}/{report.n_bugs} bugs -> {args.out}")


def cmd_train(args):
    names, rows = featureio.read_features(args.features)
    model = learn.train(args.learner, rows, args.hyper, args.seed)
    _write(args.out, model.save)
    print(f"trained {args.learner} on {len(rows)} rows x {len(names)} features (seed {args.seed}) -> {args.out}")


def cmd_crossval(args):
    _names, rows = featureio.read_features(args.features)
    # The features come pre-built from the CSV.
    trainer = evaluate.SingleSetTrainer("file", args.learner, args.hyper)
    report = evaluate.crossval(rows, trainer, k=args.k, seed=args.seed, threshold=args.threshold)
    _write_report(args, report, f"crossval {args.learner}")


def cmd_combine(args):
    _lnames, _enames, joint = featureio.join_feature_sets(args.learned_features, args.engineered_features)
    if args.strategy == "fusion":
        trainer = evaluate.FusionTrainer(args.hyper)
    elif args.strategy == "ensemble":
        trainer = evaluate.EnsembleTrainer(args.learner, args.hyper)
    else:
        trainer = evaluate.SingleSetTrainer("concat", args.learner, args.hyper)
    report = evaluate.crossval(joint, trainer, k=args.k, seed=args.seed, threshold=args.threshold)
    _write_report(args, report, f"combine {args.strategy}")


def cmd_explain(args):
    model = learn.load(args.model)
    names, rows = featureio.read_features(args.features)
    if args.interaction:
        pair = args.interaction.split(",")
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
    targets = [i for i, pid in enumerate(data.patch_ids) if args.patch_id in (None, pid)]
    if not targets:
        raise FeatureError(f"--patch-id names {args.patch_id!r}, which is not a patch of {args.features}")
    X = data.X[targets]
    explanations = explain.explain_rows(model, X, background, [data.patch_ids[i] for i in targets])
    space = explanations[0].space
    if args.interaction:  # before any file is written: an lr model refuses it
        values = explain.interaction_pairs(model, X, names.index(pair[0]), names.index(pair[1]), background)
        values = [{"patch_id": exp.patch_id, "value": value} for exp, value in zip(explanations, values)]
    if args.out:
        _write(args.out, lambda path: fileio.write_csv(
            path, ["patch_id", "feature_name", "contribution"],
            ([exp.patch_id, name, repr(float(value))]
             for exp in explanations for name, value in zip(names, exp.contributions))), args)
    if args.global_out:
        gi = explain.rank_importance(explanations, names)
        _write(args.global_out, {
            "space": gi.space,
            "ranking": [{"feature": n, "mean_abs_contribution": v} for n, v in gi.ranking],
            "blocks": explain.block_totals(gi),
        }, args)
    if args.interaction:
        _write(args.interaction_out, {"pair": pair, "space": space, "values": values}, args)
    if args.plot_data:
        _write(args.plot_data, {
            "space": space,
            "features": names,
            "points": [{"patch_id": exp.patch_id,
                        "values": [float(v) for v in x],
                        "contributions": [float(c) for c in exp.contributions]}
                       for exp, x in zip(explanations, X)],
        }, args)
    print(f"explained {len(explanations)} predictions in {space} space"
          + (f" -> {args.out}" if args.out else ""))


def cmd_compare(args):
    preds_a = evaluate.read_predictions(args.a)
    preds_b = evaluate.read_predictions(args.b, {p["patch_id"]: p["label"] for p in preds_a})
    report = evaluate.compare_predictions(preds_a, preds_b, args.threshold)
    _write(args.out, {"overlap": report}, args)
    cp = report["correct_patches"]
    print(f"correct patches: both {cp['both']}, only-a {cp['only_a']}, only-b {cp['only_b']}, "
          f"neither {cp['neither']} -> {args.out}")


# --- argument wiring ----------------------------------------------------------

OUT = Flag("out", required=True, output=True)
CORPUS = Flag("corpus", required=True)
EMBEDDINGS = Flag("embeddings", required=True)
FEATURES = Flag("features", required=True)
LEARNER = Flag("learner", default="gbt",
               rule=(lambda v: isinstance(v, str) and v in _LEARNERS, f"one of {'|'.join(_LEARNERS)}"))
SEED = Flag("seed", int, 0, rule=HYPERPARAMETER_CHECKS["seed"])  # numpy's rule, for every command
K = Flag("k", int, 10)
THRESHOLD = Flag("threshold", float, 0.5)
HYPER = Flag("hyper", help="inline JSON hyperparameter overrides", rule=(_json_object, "text holding a JSON object"))

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
        Flag("background", help="background feature CSV, every row of it (default: --features)"),
        Flag("patch-id", help="explain a single patch"),
        Flag("out", output=True, help="per-instance contribution CSV"),
        Flag("global-out", output=True, help="ranked global importance JSON"),
        Flag("interaction", metavar="A,B", help="feature pair for interaction values",
             rule=(lambda v: isinstance(v, str) and v.count(",") == 1, "two feature names A,B")),
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
            # Values are parsed as text, which resolve() reads and checks; choices show as argparse shows them.
            if flag.type is bool:
                p.add_argument(f"--{flag.name}", action="store_true", default=None, help=flag.help)
            else:
                p.add_argument(f"--{flag.name}", help=flag.help, metavar=flag.metavar or (
                    f"{{{','.join(flag.choices)}}}" if flag.choices else None))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = fileio.read_object(args.config, UsageError, "config file") if args.config else {}
        resolve(args, cfg)
        COMMANDS[args.command][0](args)
        return 0
    except (PatchPredError, OSError) as exc:
        print(f"error[{getattr(exc, 'category', 'io')}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
