"""The three benchmark workloads, written against patchpred's public functions.

Every call into a patchpred module goes through `Run.op`, which counts the
operation and, in a traced run, records a span named after the module.
Timers leave out the time spent on host-speed samples (see hostspeed.py).
Each workload has a set-up step that builds its inputs and a pass that is
timed; `run.py` repeats the pass until the run's time is used up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import patchpred as pp
from patchpred import combine, embed, engineered, evaluate, explain, featureio, learn
from patchpred.corpus import Label, PatchRecord, persist
from patchpred.errors import PatchPredError

# The README quickstart's fixed seeds for the learner, crossval and explain
# stages; the workload seed drives only the generated inputs.
LEARNER_SEED = 42
EXPLAIN_SEED = 0
BACKGROUND_CAP = 512

# Acceptance-suite floors for AUC, per workload.
AUC_FLOOR = {"walkthrough": 0.95, "paper_scale": 0.85, "triage": 0.95}
ADDITIVITY_TOL = 1e-9

SCALES = {
    "full": {
        "walkthrough": {"bugs": 40, "patches_per_bug": 5, "k": 10, "epochs": 100},
        "paper_scale": {"bugs": 400, "patches_per_bug": 5, "k": 5},
        "triage": {"bugs": 40, "patches_per_bug": 5, "epochs": 100, "stream_bugs": 200},
    },
    # For the smoke test only: the same code paths in a few seconds.
    "tiny": {
        "walkthrough": {"bugs": 12, "patches_per_bug": 4, "k": 3, "epochs": 30},
        "paper_scale": {"bugs": 60, "patches_per_bug": 5, "k": 3},
        "triage": {"bugs": 12, "patches_per_bug": 4, "epochs": 30, "stream_bugs": 8},
    },
}


@dataclass
class Run:
    """State of one benchmark run: the tracer, counters, checks and timers."""

    tracer: object
    speed: object
    work: Path
    params: dict
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    @contextmanager
    def op(self, name: str, timer: str | None = None, **counts):
        """One call into patchpred: counted, traced, optionally timed."""
        self.attempted += 1
        mark = self.speed.mark()
        try:
            with self.tracer.span(name, **counts) as c:
                yield c
        except Exception:
            self.failed += 1
            raise
        finally:
            if timer is not None:
                self.times[timer] = self.times.get(timer, 0.0) + self.speed.since(mark)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what not in self.failures:
                self.failures.append(what)

    def probe(self, name: str, fn) -> None:
        """A known-defect probe: untimed, outside the op counts."""
        try:
            problem = fn()
        except PatchPredError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        self.probes.append({"probe": name, "passed": problem is None, "detail": problem})

    def path(self, name: str) -> Path:
        return self.work / name

    def record_artifact(self, name: str) -> None:
        digest = hashlib.sha256(self.path(name).read_bytes()).hexdigest()
        previous = self.artifacts.setdefault(name, digest)
        self.check(previous == digest, f"{name} differs between passes of one run")


def _label(rec: PatchRecord) -> int | None:
    return {Label.CORRECT: 1, Label.INCORRECT: 0}.get(rec.label)


def _size(path) -> int:
    return os.path.getsize(path)


def _tree_count(model) -> int:
    return len(getattr(model, "trees", ()))


def _node_count(model) -> int:
    return sum(len(t.feature) for t in getattr(model, "trees", ()))


def _check_probabilities(run: Run, probs, what: str) -> None:
    probs = np.asarray(probs, dtype=float)
    ok = bool(np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0)))
    run.check(ok, f"{what}: a probability is non-finite or outside [0, 1]")


def _check_auc(run: Run, workload: str, value: float) -> None:
    floor = AUC_FLOOR[workload]
    run.check(value >= floor, f"{workload} AUC {value:.4f} is below the floor {floor}")


def _check_additivity(run: Run, explanations, what: str) -> None:
    worst = max(e.additivity_gap() for e in explanations)
    run.check(worst <= ADDITIVITY_TOL, f"{what}: additivity gap {worst:.3g} exceeds {ADDITIVITY_TOL}")


# --- shared stage helpers ------------------------------------------------------

def _ingest(run: Run, path, allow_unlabeled=True):
    with run.op("corpus.ingest") as c:
        cor, _report = pp.ingest(path, allow_unlabeled=allow_unlabeled)
        c["records"] = len(cor)
    return cor


def _fragments(run: Run, records) -> dict:
    with run.op("diffparse.fragments") as c:
        frags = {rec.patch_id: pp.fragments_for_diff(rec.diff_text) for rec in records}
        c["patches"] = len(frags)
    return frags


def _documents(frags) -> list[list[str]]:
    docs = []
    for frag in frags.values():
        docs.append(list(frag.buggy_tokens))
        docs.append(list(frag.patched_tokens))
    return docs


def _train_embedder(run: Run, docs, epochs: int):
    config = embed.EmbedderConfig(epochs=epochs)
    with run.op("embed.train", timer="train_embedder_s") as c:
        model = pp.train_embedder(docs, config)
        c["epochs"] = config.epochs
        c["token_steps"] = config.epochs * sum(len(d) for d in docs)
    return model


def _embed_corpus(run: Run, model, frags):
    with run.op("embed.infer") as c:
        pairs, flagged = embed.embed_corpus(model, frags)
        flagged = set(flagged)
        c["fragments"] = 2 * len(pairs)
        c["oov_fragments"] = sum(embed.is_zero_norm(p.buggy_vec) + embed.is_zero_norm(p.patched_vec)
                                 for p in pairs if p.patch_id in flagged)
    return pairs


def _save_embedder(run: Run, model, name: str) -> None:
    with run.op("embed.io") as c:
        embed.save_model(model, run.path(name))
        c["bytes"] = _size(run.path(name))


def _load_embedder(run: Run, name: str):
    with run.op("embed.io") as c:
        model = embed.load_model(run.path(name))
        c["bytes"] = _size(run.path(name))
    return model


def _export(run: Run, pairs, name: str) -> None:
    with run.op("embed.io") as c:
        embed.export_embeddings(pairs, run.path(name))
        c["bytes"] = _size(run.path(name))


def _import(run: Run, name: str):
    with run.op("embed.import") as c:
        pairs = pp.import_embeddings(run.path(name))
        c["records"] = len(pairs)
    return pairs


def _cross(run: Run, pairs) -> dict:
    with run.op("crossing.cross") as c:
        crossed = {p.patch_id: pp.cross(p).values for p in pairs}
        c["pairs"] = len(crossed)
    return crossed


def _extract(run: Run, records) -> dict:
    with run.op("engineered.extract") as c:
        vecs = {rec.patch_id: pp.extract_all(rec).values for rec in records}
        c["patches"] = len(vecs)
    return vecs


def _concat(run: Run, records, learned: dict, eng: dict) -> list:
    with run.op("combine.concat") as c:
        rows = [learn.FeatureRow(rec.patch_id, rec.bug_id,
                                 combine.naive_concat(learned[rec.patch_id], eng[rec.patch_id]),
                                 _label(rec))
                for rec in records]
        c["rows"] = len(rows)
    return rows


def _fit(run: Run, kind: str, rows, timer: str):
    with run.op(f"learn.fit.{kind}", timer=timer) as c:
        model = pp.train(kind, rows, None, LEARNER_SEED)
        c.update(calls=1, trees=_tree_count(model), nodes=_node_count(model))
    return model


def _save_model(run: Run, model, name: str) -> None:
    with run.op("learn.io") as c:
        model.save(run.path(name))
        c["bytes"] = _size(run.path(name))


def _load_model(run: Run, name: str):
    with run.op("learn.io") as c:
        model = pp.load_model(run.path(name))
        c["bytes"] = _size(run.path(name))
    return model


def _predict_batch(run: Run, model, X):
    with run.op("learn.predict", rows=len(X), row_trees=len(X) * _tree_count(model)):
        return model.predict_proba_batch(X)


def _explain_rows(run: Run, model, rows, background) -> list:
    trees = _tree_count(model)
    explanations = []
    for patch_id, x in rows:
        with run.op("explain.instance", rows=1, trees=trees, row_trees=trees):
            explanations.append(explain.explain_instance(model, x, background, patch_id))
    return explanations


def _cli_background(X: np.ndarray) -> np.ndarray:
    """The background `patchpred explain` uses by default: a seeded subsample."""
    if len(X) <= BACKGROUND_CAP:
        return X
    idx = np.sort(np.random.default_rng(EXPLAIN_SEED).choice(len(X), size=BACKGROUND_CAP, replace=False))
    return X[idx]


def _write_probabilities(run: Run, name: str, ids, probs) -> None:
    with open(run.path(name), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patch_id", "probability"])
        for pid, p in zip(ids, probs):
            writer.writerow([pid, repr(float(p))])
    run.record_artifact(name)


class _TimedTrainer:
    """Delegates to SingleSetTrainer; times its fit and the predictor it returns."""

    def __init__(self, run: Run, feature_set: str):
        self.run = run
        self.inner = evaluate.SingleSetTrainer(feature_set, "gbt")
        self.fit_times: list[float] = []
        self.models: list = []

    def describe(self) -> dict:
        return self.inner.describe()

    def fit(self, rows, seed: int):
        run = self.run
        mark = run.speed.mark()
        with run.op("learn.fit.gbt") as c:
            predictor = self.inner.fit(rows, seed)
            c.update(calls=1, trees=_tree_count(predictor.model), nodes=_node_count(predictor.model))
        self.fit_times.append(run.speed.since(mark))
        self.models.append(predictor.model)
        trees = _tree_count(predictor.model)

        def predict(test_rows):
            with run.op("learn.predict", rows=len(test_rows), row_trees=len(test_rows) * trees):
                return predictor(test_rows)

        return predict


def _crossval(run: Run, joint, feature_set: str, k: int) -> dict:
    with run.op("evaluate.crossval", timer="crossval_s", folds=k):
        return pp.crossval(joint, _TimedTrainer(run, feature_set), k=k, seed=LEARNER_SEED)


def _write_crossval(run: Run, report: dict, stem: str) -> list:
    predictions = report.pop("predictions")
    with open(run.path(f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    evaluate.write_predictions(run.path(f"{stem}.csv"), predictions)
    run.record_artifact(f"{stem}.csv")
    _check_probabilities(run, [p["probability"] for p in predictions], stem)
    return predictions


# --- walkthrough ---------------------------------------------------------------

# The README quickstart's `gen-synthetic --seed 11`. Its diffs stay fixed:
# with other diffs the embedder sometimes fails to separate the classes and
# every GBT tree grows from a 3-node stump to ~10 nodes, a different
# workload (2.5x slower) rather than noise.
README_CORPUS_SEED = 11


def walkthrough_setup(run: Run) -> tuple[str, None]:
    """The README corpus with its bugs renamed by the workload seed, which
    changes the crossval fold plans but not the token streams."""
    p = run.params
    cor = pp.generate_corpus(p["bugs"], p["patches_per_bug"], "learned", README_CORPUS_SEED)
    bugs = cor.bug_ids()
    order = list(range(len(bugs)))
    random.Random(run.seed).shuffle(order)
    name = {bug: f"SynthBug-{i:03d}" for bug, i in zip(bugs, order)}
    cor = pp.Corpus([PatchRecord(r.patch_id, name[r.bug_id], r.project, r.tool, r.label, r.diff_text)
                     for r in cor.records], cor.provenance)
    persist(cor, run.path("corpus.jsonl"))
    return hashlib.sha256(run.path("corpus.jsonl").read_bytes()).hexdigest(), None


def walkthrough_pass(run: Run, _state=None) -> dict:
    """The README quickstart, stage by stage, passing files as the CLI does."""
    p = run.params
    corpus_path = run.path("corpus.jsonl")

    # fragments
    cor = _ingest(run, corpus_path)
    frags = _fragments(run, cor.records)
    with open(run.path("fragments.jsonl"), "w", encoding="utf-8") as fh:
        for pid, frag in frags.items():
            fh.write(json.dumps({"patch_id": pid, "buggy_text": frag.buggy_text,
                                 "patched_text": frag.patched_text}, sort_keys=True) + "\n")

    # train-embedder
    cor = _ingest(run, corpus_path)
    model = _train_embedder(run, _documents(_fragments(run, cor.records)), p["epochs"])
    _save_embedder(run, model, "embedder.json")
    run.record_artifact("embedder.json")

    # embed
    mark = run.speed.mark()
    cor = _ingest(run, corpus_path)
    model = _load_embedder(run, "embedder.json")
    pairs = _embed_corpus(run, model, _fragments(run, cor.records))
    _export(run, pairs, "embeddings.jsonl")
    run.times["embed_s"] = run.times.get("embed_s", 0.0) + run.speed.since(mark)
    run.record_artifact("embeddings.jsonl")

    # features --set learned
    cor = _ingest(run, corpus_path)
    by_id = cor.by_patch_id()
    pairs = _import(run, "embeddings.jsonl")
    crossed = _cross(run, pairs)
    rows = [learn.FeatureRow(pid, by_id[pid].bug_id, vec, _label(by_id[pid])) for pid, vec in crossed.items()]
    with run.op("featureio.write", rows=len(rows)) as c:
        featureio.write_features(run.path("learned.csv"), rows, pp.crossed_feature_names(pairs[0].n))
        c["bytes"] = _size(run.path("learned.csv"))

    # features --set engineered
    cor = _ingest(run, corpus_path)
    eng = _extract(run, cor.records)
    rows = [learn.FeatureRow(rec.patch_id, rec.bug_id, eng[rec.patch_id], _label(rec)) for rec in cor.records]
    with run.op("featureio.write", rows=len(rows)) as c:
        featureio.write_features(run.path("engineered.csv"), rows, engineered.feature_names())
        c["bytes"] = _size(run.path("engineered.csv"))

    # crossval --features learned.csv
    names, rows = _read_features(run, "learned.csv")
    joint = [evaluate.JointRow(r.patch_id, r.bug_id, int(r.label), learned=r.features) for r in rows]
    _write_crossval(run, _crossval(run, joint, "learned", p["k"]), "predictions")

    # combine --strategy concat
    with run.op("featureio.read") as c:
        _ln, _en, joint = featureio.join_feature_sets(run.path("learned.csv"), run.path("engineered.csv"))
        c["rows"] = 2 * len(joint)
        c["bytes"] = _size(run.path("learned.csv")) + _size(run.path("engineered.csv"))
    report = _crossval(run, joint, "concat", p["k"])
    auc = report["pooled"]["auc"]
    _write_crossval(run, report, "predictions_concat")
    _check_auc(run, "walkthrough", auc)

    # train --features learned.csv
    names, rows = _read_features(run, "learned.csv")
    model = _fit(run, "gbt", rows, timer="gbt_fit_s")
    _save_model(run, model, "model.json")
    run.record_artifact("model.json")

    # explain --out contributions.csv --global-out importance.json
    mark = run.speed.mark()
    model = _load_model(run, "model.json")
    names, rows = _read_features(run, "learned.csv")
    X = np.array([r.features for r in rows])
    background = _cli_background(X)
    explanations = _explain_rows(run, model, [(r.patch_id, r.features) for r in rows], background)
    with open(run.path("contributions.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patch_id", "feature_name", "contribution"])
        for exp in explanations:
            for name, value in zip(names, exp.contributions):
                writer.writerow([exp.patch_id, name, repr(float(value))])
    with run.op("explain.global"):
        gi = pp.global_importance(model, X, names, background)
    with open(run.path("importance.json"), "w", encoding="utf-8") as fh:
        json.dump({"space": gi.space, "ranking": gi.ranking}, fh, sort_keys=True)
    explain_s = run.speed.since(mark)
    _check_additivity(run, explanations, "walkthrough explanations")
    run.record_artifact("contributions.csv")
    run.record_artifact("importance.json")

    # compare --a predictions.csv --b predictions_concat.csv
    overlap = evaluate.compare_predictions(evaluate.read_predictions(run.path("predictions.csv")),
                                           evaluate.read_predictions(run.path("predictions_concat.csv")))
    for side in overlap.values():
        parts = side["both"] + side["only_a"] + side["only_b"] + side["neither"]
        run.check(parts == side["total"], "compare: overlap counts do not add up")
    return {"auc": auc, "explain_rows_per_s": len(explanations) / explain_s}


def _read_features(run: Run, name: str):
    with run.op("featureio.read") as c:
        names, rows = featureio.read_features(run.path(name))
        c["rows"] = len(rows)
        c["bytes"] = _size(run.path(name))
    return names, rows


# --- paper_scale ---------------------------------------------------------------

STANDIN_DIM = 64
STANDIN_SALT = "perfbench-standin:"


def standin_vector(tokens) -> np.ndarray:
    """A label-blind stand-in for an external embedder: identifier tokens
    hashed into a bag of STANDIN_DIM counts, L2-normalized. Like a real
    external model it is fixed; only the corpus changes with the seed."""
    vec = np.zeros(STANDIN_DIM)
    for tok in tokens:
        if tok[0].isalpha() or tok[0] == "_":
            h = hashlib.blake2b((STANDIN_SALT + tok).encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(h, "little") % STANDIN_DIM] += 1.0
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm else vec


def paper_scale_setup(run: Run) -> tuple[str, None]:
    p = run.params
    cor = pp.generate_corpus(p["bugs"], p["patches_per_bug"], "xor", run.seed)
    persist(cor, run.path("corpus.jsonl"))
    with open(run.path("embeddings.jsonl"), "w", encoding="utf-8") as fh:
        for rec in cor.records:
            frag = pp.fragments_for_diff(rec.diff_text)
            fh.write(json.dumps({"patch_id": rec.patch_id,
                                 "buggy_vec": standin_vector(frag.buggy_tokens).tolist(),
                                 "patched_vec": standin_vector(frag.patched_tokens).tolist()},
                                sort_keys=True) + "\n")
    return hashlib.sha256(run.path("corpus.jsonl").read_bytes()
                          + run.path("embeddings.jsonl").read_bytes()).hexdigest(), None


def paper_scale_pass(run: Run, _state=None) -> dict:
    """~2,000 xor patches with imported vectors: GBT crossval over k
    bug-disjoint folds, and RF on the training split of the first fold."""
    p = run.params
    cor = _ingest(run, run.path("corpus.jsonl"), allow_unlabeled=False)
    pairs = _import(run, "embeddings.jsonl")
    rows = _concat(run, cor.records, _cross(run, pairs), _extract(run, cor.records))

    # As `patchpred crossval --features concat.csv`: the concat vectors are
    # the one feature set.
    joint = [evaluate.JointRow(r.patch_id, r.bug_id, r.label, learned=r.features) for r in rows]
    trainer = _TimedTrainer(run, "learned")
    with run.op("evaluate.crossval", folds=p["k"]):
        report = pp.crossval(joint, trainer, k=p["k"], seed=LEARNER_SEED)
    run.times["gbt_fit_s"] = median(trainer.fit_times)
    auc = report["pooled"]["auc"]
    _write_crossval(run, report, "predictions")
    _check_auc(run, "paper_scale", auc)

    test_bugs = set(report["fold_plan"][0])
    train_rows = [r for r in rows if r.bug_id not in test_bugs]
    test_rows = [r for r in rows if r.bug_id in test_bugs]
    X_train = np.array([r.features for r in train_rows])
    X_test = np.array([r.features for r in test_rows])
    rf = _fit(run, "rf", train_rows, timer="rf_fit_s")
    _save_model(run, trainer.models[0], "gbt.json")
    _save_model(run, rf, "rf.json")
    gbt = _load_model(run, "gbt.json")
    rf = _load_model(run, "rf.json")
    run.record_artifact("gbt.json")
    run.record_artifact("rf.json")
    p_rf = _predict_batch(run, rf, X_test)

    # TreeSHAP is probed, not timed: the midpoint-threshold defect behind
    # probe (a) can leave GBT nodes that even the training matrix does not
    # cover, and a timed stage must not fail on some seeds.
    run.probe("rf_leaves_finite_and_explainable",
              lambda: _probe_rf(rf, X_train, X_test, p_rf))
    run.probe("gbt_explain_with_cli_background",
              lambda: _probe_explain(gbt, X_test[0], _cli_background(X_train)))
    run.probe("gbt_explain_with_training_background",
              lambda: _probe_explain(gbt, X_test[0], X_train))
    return {"auc": auc}


def _probe_rf(rf, X_train, X_test, p_rf) -> str | None:
    bad_leaves = sum(int(np.sum(~np.isfinite(t.value))) for t in rf.trees)
    if bad_leaves:
        return f"{bad_leaves} non-finite leaf values over {len(rf.trees)} trees"
    if not np.all(np.isfinite(p_rf)):
        return "non-finite holdout probability"
    exp = explain.tree_shap(rf, X_test[0], X_train)
    if not exp.additivity_gap() <= ADDITIVITY_TOL:
        return f"additivity gap {exp.additivity_gap():.3g}"
    return None


def _probe_explain(model, x, background) -> str | None:
    exp = explain.tree_shap(model, x, background)
    if not exp.additivity_gap() <= ADDITIVITY_TOL:
        return f"additivity gap {exp.additivity_gap():.3g}"
    return None


# --- triage --------------------------------------------------------------------

STREAM_SEED_OFFSET = 1_000_003


@dataclass
class TriageModels:
    embedder: object
    classifier: object
    stream: list
    labels: list


def triage_setup(run: Run) -> tuple[str, TriageModels]:
    """Train the embedder and a concat GBT, save and reload both, and read
    the unseen patches (written without labels) from disk."""
    p = run.params
    train_cor = pp.generate_corpus(p["bugs"], p["patches_per_bug"], "learned", run.seed)
    persist(train_cor, run.path("corpus.jsonl"))
    cor = _ingest(run, run.path("corpus.jsonl"), allow_unlabeled=False)
    frags = _fragments(run, cor.records)
    embedder = _train_embedder(run, _documents(frags), p["epochs"])
    _save_embedder(run, embedder, "embedder.json")
    embedder = _load_embedder(run, "embedder.json")
    _export(run, _embed_corpus(run, embedder, frags), "embeddings.jsonl")
    pairs = _import(run, "embeddings.jsonl")
    rows = _concat(run, cor.records, _cross(run, pairs), _extract(run, cor.records))
    classifier = _fit(run, "gbt", rows, timer="gbt_fit_s")
    _save_model(run, classifier, "model.json")
    classifier = _load_model(run, "model.json")
    for name in ("embedder.json", "embeddings.jsonl", "model.json"):
        run.record_artifact(name)

    unseen = pp.generate_corpus(p["stream_bugs"], 5, "learned", run.seed + STREAM_SEED_OFFSET)
    labels = [_label(rec) for rec in unseen.records]
    stripped = pp.Corpus([PatchRecord(r.patch_id, r.bug_id, r.project, r.tool, Label.UNLABELED, r.diff_text)
                          for r in unseen.records])
    persist(stripped, run.path("stream.jsonl"))
    stream = _ingest(run, run.path("stream.jsonl"), allow_unlabeled=True).records
    digest = hashlib.sha256(run.path("corpus.jsonl").read_bytes()
                            + run.path("stream.jsonl").read_bytes()).hexdigest()
    return digest, TriageModels(embedder, classifier, stream, labels)


def triage_pass(run: Run, models: TriageModels) -> dict:
    """Closed loop, one client: score each unseen patch from diff text to a
    probability, one at a time."""
    tracer = run.tracer
    embedder, classifier = models.embedder, models.classifier
    trees = _tree_count(classifier)
    latencies, probs, ids, labels = [], [], [], []
    for rec, label in zip(models.stream, models.labels):
        tracer.trace_id = rec.patch_id
        mark = run.speed.mark()
        try:
            with run.op("diffparse.fragments", patches=1):
                frag = pp.fragments_for_diff(rec.diff_text)
            with run.op("embed.infer", fragments=2) as c:
                buggy, oov_b = pp.infer_vector(embedder, frag.buggy_tokens)
                patched, oov_p = pp.infer_vector(embedder, frag.patched_tokens)
                c["oov_fragments"] = int(oov_b) + int(oov_p)
            with run.op("crossing.cross", pairs=1):
                learned = pp.cross(embed.EmbeddingPair(rec.patch_id, buggy, patched, "builtin",
                                                       embedder.config.n)).values
            with run.op("engineered.extract", patches=1):
                eng = pp.extract_all(rec).values
            with run.op("combine.concat", rows=1):
                x = combine.naive_concat(learned, eng)
            with run.op("learn.predict", rows=1, row_trees=trees):
                probs.append(classifier.predict_proba(x))
        except PatchPredError:
            continue  # counted as a failed op; the client moves on
        latencies.append(run.speed.since(mark))
        ids.append(rec.patch_id)
        labels.append(label)
    tracer.trace_id = "triage"
    auc = pp.auc(probs, labels)
    _check_probabilities(run, probs, "triage scores")
    _check_auc(run, "triage", auc)
    _write_probabilities(run, "scores.csv", ids, probs)
    lat_ms = np.array(latencies) * 1e3
    return {
        "auc": auc,
        "latencies_ms": lat_ms,
        "score_patches_per_s": len(latencies) / float(np.sum(latencies)),
    }


def median(values) -> float:
    return float(statistics.median(values))


# name -> (set-up, timed pass); a set-up returns (input digest, state for the pass)
WORKLOADS = {
    "walkthrough": (walkthrough_setup, walkthrough_pass),
    "paper_scale": (paper_scale_setup, paper_scale_pass),
    "triage": (triage_setup, triage_pass),
}
