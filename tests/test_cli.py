import argparse
import collections
import json
from pathlib import Path

import numpy as np
import pytest

from patchpred import cli, corpus, embed, evaluate, explain, featureio, fileio, filtering, learn
from patchpred.errors import FeatureError
from patchpred.learn import FeatureRow


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small corpus taken through every artifact the commands consume."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "corpus": root / "corpus.jsonl",
        "embedder": root / "embedder.json",
        "embeddings": root / "embeddings.jsonl",
        "learned": root / "learned.csv",
        "engineered": root / "engineered.csv",
        "registry": root / "registry.json",
        "root": root,
    }
    assert run("gen-synthetic", "--bugs", "10", "--patches-per-bug", "4",
               "--signal", "learned", "--seed", "5", "--out", str(paths["corpus"])) == 0
    assert run("train-embedder", "--corpus", str(paths["corpus"]), "--dim", "8",
               "--epochs", "30", "--out", str(paths["embedder"])) == 0
    assert run("embed", "--corpus", str(paths["corpus"]), "--model", str(paths["embedder"]),
               "--out", str(paths["embeddings"])) == 0
    assert run("features", "--corpus", str(paths["corpus"]), "--embeddings", str(paths["embeddings"]),
               "--set", "learned", "--out", str(paths["learned"])) == 0
    assert run("features", "--corpus", str(paths["corpus"]), "--set", "engineered",
               "--out", str(paths["engineered"]), "--registry-out", str(paths["registry"])) == 0
    return paths


def test_gen_synthetic_then_ingest_round_trips(tmp_path):
    out = tmp_path / "c.jsonl"
    clean = tmp_path / "clean.jsonl"
    assert run("gen-synthetic", "--bugs", "8", "--patches-per-bug", "5", "--seed", "1",
               "--out", str(out)) == 0
    assert run("ingest", "--input", str(out), "--out", str(clean),
               "--report", str(tmp_path / "report.json")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["ingested"] == 40
    assert report["report"]["duplicates_dropped"] == 0


def test_fragments_jsonl_schema(pipeline, tmp_path):
    out = tmp_path / "frags.jsonl"
    assert run("fragments", "--corpus", str(pipeline["corpus"]), "--out", str(out)) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 40
    assert set(lines[0]) == {"patch_id", "buggy_text", "patched_text"}
    assert "\n" not in lines[0]["buggy_text"]


def test_feature_csv_headers(pipeline):
    header = pipeline["learned"].read_text().splitlines()[0].split(",")
    assert header[:3] == ["patch_id", "bug_id", "label"]
    assert header[3] == "B-0"
    eng_header = pipeline["engineered"].read_text().splitlines()[0].split(",")
    assert "singleLine" in eng_header and "codeMove" in eng_header


def test_registry_export(pipeline):
    registry = json.loads(pipeline["registry"].read_text())
    assert registry["version"]
    names = [e["name"] for e in registry["features"]]
    assert "singleLine" in names and all(e["rule"] for e in registry["features"])


def test_import_embeddings_command(pipeline):
    assert run("import-embeddings", "--embeddings", str(pipeline["embeddings"])) == 0


def _first_vectors(tmp_path, first):
    """A corpus of 8 patches and its embeddings, every record's vectors
    [1.0, 0.5, 0.25] and [1.0, 0.25, 0.5] but the first's, which are `first`."""
    paths = tmp_path / "corpus.jsonl", tmp_path / "embeddings.jsonl"
    assert run("gen-synthetic", "--bugs", "4", "--patches-per-bug", "2", "--seed", "1", "--out", str(paths[0])) == 0
    ids = [rec.patch_id for rec in corpus.read(paths[0]).records]
    normal = {"buggy_vec": [1.0, 0.5, 0.25], "patched_vec": [1.0, 0.25, 0.5]}
    paths[1].write_text("".join(json.dumps({"patch_id": pid, **(first if i == 0 else normal)}) + "\n"
                                for i, pid in enumerate(ids)))
    return [str(path) for path in paths]


@pytest.mark.parametrize("command", ["features", "stats", "filter", "top1"])
def test_vectors_whose_squares_overflow_are_refused_by_every_command_that_reads_them(command, tmp_path, capsys):
    corpus_path, embeddings = _first_vectors(tmp_path, {"buggy_vec": [1e200, 0.5, 0.25],
                                                         "patched_vec": [1e200, 0.25, 0.5]})
    out = tmp_path / "out"
    extra = {"features": ["--set", "learned"], "stats": ["--label-filter", "all"], "filter": ["--policy", "0.5"],
             "top1": []}[command]
    assert run(command, "--corpus", corpus_path, "--embeddings", embeddings, *extra, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[embed]: {embeddings} line 1: patch 'synth-0000': ") and "Traceback" not in err
    assert not out.exists()


def test_a_pair_of_vectors_whose_norms_underflow_scores_its_cosine(tmp_path):
    corpus_path, embeddings = _first_vectors(tmp_path, {"buggy_vec": [1e-200, 0.0, 0.0],
                                                         "patched_vec": [1e-200, 0.0, 0.0]})
    stats, learned = tmp_path / "stats.json", tmp_path / "learned.csv"
    assert run("stats", "--corpus", corpus_path, "--embeddings", embeddings, "--label-filter", "all",
               "--out", str(stats)) == 0
    assert json.loads(stats.read_text())["flagged_zero_norm"] == []
    assert run("features", "--corpus", corpus_path, "--embeddings", embeddings, "--set", "learned",
               "--out", str(learned)) == 0
    header, row = (line.split(",") for line in learned.read_text().splitlines()[:2])
    assert row[0] == "synth-0000" and float(row[header.index("B-6")]) == 1.0  # the cosine of n = 3


def test_stats_filter_top1_pipeline(pipeline, tmp_path):
    stats_path = tmp_path / "stats.json"
    assert run("stats", "--corpus", str(pipeline["corpus"]), "--embeddings",
               str(pipeline["embeddings"]), "--out", str(stats_path)) == 0
    stats = json.loads(stats_path.read_text())
    assert set(stats["stats"]) == {"min", "q1", "median", "q3", "max", "mean"}

    filt = tmp_path / "filter.json"
    verdicts = tmp_path / "verdicts.csv"
    assert run("filter", "--corpus", str(pipeline["corpus"]), "--embeddings",
               str(pipeline["embeddings"]), "--stats", str(stats_path), "--policy", "q1",
               "--out", str(filt), "--out-verdicts", str(verdicts)) == 0
    result = json.loads(filt.read_text())["result"]
    assert result["policy"]["statistic"] == "q1"
    assert {"+CP", "-IP", "+Recall", "-Recall"} <= set(result)
    assert verdicts.read_text().splitlines()[0] == "patch_id,predicted_correct"

    top1 = tmp_path / "top1.json"
    assert run("top1", "--corpus", str(pipeline["corpus"]), "--embeddings",
               str(pipeline["embeddings"]), "--out", str(top1)) == 0
    assert json.loads(top1.read_text())["n_bugs"] == 10


def test_crossval_writes_report_and_predictions(pipeline, tmp_path):
    out = tmp_path / "cv.json"
    preds = tmp_path / "preds.csv"
    assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "nb",
               "--k", "5", "--seed", "2", "--out", str(out), "--out-predictions", str(preds)) == 0
    report = json.loads(out.read_text())
    assert report["config"]["k"] == 5
    assert report["config"]["seed"] == 2
    assert len(report["per_fold"]) == 5
    assert len(preds.read_text().splitlines()) == 41  # header + one row per patch
    assert (tmp_path / "preds.csv.meta.json").exists()


def test_crossval_rerun_is_byte_identical(pipeline, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "gbt",
                   "--hyper", '{"rounds": 10}', "--k", "4", "--seed", "3", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_combine_report_carries_strategy(pipeline, tmp_path):
    out = tmp_path / "combine.json"
    assert run("combine", "--strategy", "concat", "--learner", "gbt",
               "--hyper", '{"rounds": 10}',
               "--learned-features", str(pipeline["learned"]),
               "--engineered-features", str(pipeline["engineered"]),
               "--k", "4", "--seed", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["config"]["trainer"]["strategy"] == "concat"
    assert report["provenance"]["config"]["strategy"] == "concat"


def test_train_then_explain_and_refusal(pipeline, tmp_path):
    model = tmp_path / "model.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "dt",
               "--seed", "1", "--out", str(model)) == 0
    contrib = tmp_path / "contrib.csv"
    glob = tmp_path / "global.json"
    assert run("explain", "--model", str(model), "--features", str(pipeline["learned"]),
               "--out", str(contrib), "--global-out", str(glob)) == 0
    ranking = json.loads(glob.read_text())["ranking"]
    assert ranking and ranking[0]["mean_abs_contribution"] >= ranking[-1]["mean_abs_contribution"]
    header = contrib.read_text().splitlines()[0]
    assert header == "patch_id,feature_name,contribution"

    nb_model = tmp_path / "nb.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "nb",
               "--seed", "1", "--out", str(nb_model)) == 0
    assert run("explain", "--model", str(nb_model), "--features", str(pipeline["learned"]),
               "--out", str(tmp_path / "x.csv")) == 1


def test_compare_command(pipeline, tmp_path):
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for seedval, path in (("2", p1), ("2", p2)):
        assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "nb",
                   "--k", "4", "--seed", seedval, "--out", str(tmp_path / "r.json"),
                   "--out-predictions", str(path)) == 0
    out = tmp_path / "overlap.json"
    assert run("compare", "--a", str(p1), "--b", str(p2), "--out", str(out)) == 0
    overlap = json.loads(out.read_text())["overlap"]
    assert overlap["correct_patches"]["only_a"] == 0


def _bad_prediction_rows(case, rows):
    """rows (a prediction CSV's, header first) with one fault, and the line
    that shows it."""
    header, first, *rest = rows
    if case == "no-fold-column":
        return [row[:-1] for row in rows], 1
    if case == "patch-id-repeated":
        return [header, first, [first[0]] + rest[0][1:], *rest[1:]], 3
    if case in ("short-row", "long-row"):
        return [header, first[:-1] if case == "short-row" else first + ["0"], *rest], 2
    column, value = {"label-not-a-number": (2, "x"), "label-not-0/1": (2, "2"),
                     "label-differs": (2, str(1 - int(first[2]))), "label-space": (2, f" {first[2]}"),
                     "probability-nan": (3, "nan"), "probability-above-1": (3, "1.5"),
                     "fold-underscore": (4, f"0_{first[4]}"), "fold-arabic-digit": (4, "\u0661")}[case]
    return [header, first[:column] + [value] + first[column + 1:], *rest], 2


@pytest.mark.parametrize("case", ["no-fold-column", "label-not-a-number", "label-not-0/1", "patch-id-repeated",
                                  "label-differs", "label-space", "probability-nan", "probability-above-1",
                                  "fold-underscore", "fold-arabic-digit", "short-row", "long-row"])
def test_compare_names_the_file_and_line_of_a_bad_prediction(case, pipeline, tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "nb", "--k", "4",
               "--out", str(tmp_path / "r.json"), "--out-predictions", str(good)) == 0
    rows, line = _bad_prediction_rows(case, [line.split(",") for line in good.read_text().splitlines()])
    bad.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    capsys.readouterr()
    assert run("compare", "--a", str(good), "--b", str(bad), "--out", str(tmp_path / "o.json")) == 1
    assert capsys.readouterr().err.startswith(f"error[eval]: {bad} line {line}: ")


# A stats report's six numbers are read as numbers (fileio.numbers) before
# any policy picks one; a fixed threshold, a number --policy, is checked as its flag enters.
@pytest.mark.parametrize("stats, policy, message", [
    ({"q1": "abc"}, "q1", 'error[eval]: STATS: not a valid stats report: q1 must be finite numbers of shape (): '
                          'got "abc"'),
    ({"mean": float("nan")}, "mean", "error[eval]: STATS: not a valid stats report: mean must be finite numbers "
                                     "of shape (): got a non"),
    ({}, "nan", "error[usage]: --policy must be q1, mean, median or a number, got nan"),
], ids=["text-statistic", "nan-statistic", "fixed-nan"])
def test_filter_refuses_a_threshold_that_is_not_a_finite_number(stats, policy, message, pipeline, tmp_path, capsys):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"stats": {**dict.fromkeys(("min", "q1", "median", "q3", "max", "mean"), 0.5),
                                          **stats}}))
    out = tmp_path / "f.json"
    assert run("filter", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--stats", str(path), "--policy", policy, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(message.replace("STATS", str(path))) and "Traceback" not in err
    assert not out.exists()


def test_a_number_policy_is_the_fixed_threshold(pipeline, tmp_path):
    # The result and the verdict bytes that --policy fixed --value 0.4 wrote, before the number was the policy.
    out, verdicts, expected = tmp_path / "f.json", tmp_path / "v.csv", tmp_path / "expected.csv"
    assert run("filter", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--policy", "0.4", "--out", str(out), "--out-verdicts", str(verdicts)) == 0
    labels = {rec.patch_id: rec.label for rec in corpus.read(pipeline["corpus"]).records}
    scored = [(pid, score, labels[pid])
              for pid, score, _flag in filtering.score_corpus(embed.import_embeddings(pipeline["embeddings"]))]
    report = filtering.filter_by_threshold(scored, filtering.ThresholdPolicy("fixed", 0.4))
    fileio.write_csv(expected, ["patch_id", "predicted_correct"], ([pid, int(p)] for pid, p in report.verdicts))
    doc = json.loads(out.read_text())
    assert doc["result"] == report.to_json_dict() and doc["result"]["policy"] == {"statistic": "fixed", "value": 0.4}
    assert verdicts.read_bytes() == expected.read_bytes()
    for provenance in (doc["provenance"], json.loads((tmp_path / "v.csv.meta.json").read_text())["provenance"]):
        assert provenance["config"]["policy"] == 0.4 and "value" not in provenance["config"]


@pytest.mark.parametrize("config, policy", [({}, "fixed"), ({}, "nan"), ({}, "abc"), ({"value": 0.4}, "0.4")],
                         ids=["fixed", "nan", "abc", "config-value"])
def test_filter_refuses_the_fixed_word_a_policy_that_is_no_number_and_a_value_entry(config, policy, pipeline,
                                                                                    tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("--config", str(path), "filter", "--corpus", str(pipeline["corpus"]), "--embeddings",
               str(pipeline["embeddings"]), "--policy", policy, "--out", str(tmp_path / "f.json"),
               "--out-verdicts", str(tmp_path / "v.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[usage]: ") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


def test_features_records_no_embeddings_for_the_engineered_set(pipeline, tmp_path):
    out = tmp_path / "engineered.csv"
    assert run("features", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--set", "engineered", "--out", str(out)) == 0
    assert json.loads((tmp_path / "engineered.csv.meta.json").read_text())["provenance"]["config"]["embeddings"] is None
    assert out.read_bytes() == pipeline["engineered"].read_bytes()


def test_features_writes_the_registry_for_every_set(pipeline, tmp_path):
    out, registry = tmp_path / "learned.csv", tmp_path / "registry.json"
    assert run("features", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--set", "learned", "--out", str(out), "--registry-out", str(registry)) == 0
    assert registry.read_bytes() == pipeline["registry"].read_bytes()
    assert out.read_bytes() == pipeline["learned"].read_bytes()


def test_a_fusion_combine_records_the_learner_it_ran(pipeline, tmp_path):
    out = tmp_path / "fusion.json"
    assert run("combine", "--strategy", "fusion", "--learner", "rf", "--hyper", '{"epochs": 2}',
               "--learned-features", str(pipeline["learned"]), "--engineered-features", str(pipeline["engineered"]),
               "--k", "4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["config"]["learner"] == report["config"]["trainer"]["learner"] == "DeepFusion"


_SIX = ("min", "q1", "median", "q3", "max", "mean")


@pytest.mark.parametrize("files, argv, category", [
    pytest.param({}, ["train", "--features", "LEARNED", "--hyper", '{"l2": 1%s}' % ("0" * 400)], "learn",
                 id="hyper-l2-overflows"),
    pytest.param({}, ["train", "--features", "LEARNED", "--learner", "rf",
                      "--hyper", '{"n_trees": 1%s}' % ("0" * 400)], "learn", id="hyper-n-trees-overflows"),
    pytest.param({"c.json": '{"lr": 1%s}' % ("0" * 400)},
                 ["--config", "TMP/c.json", "train-embedder", "--corpus", "CORPUS"], "usage",
                 id="config-embedder-learning-rate-overflows"),
    pytest.param({"c.json": '{"policy": 1%s}' % ("0" * 400)},
                 ["--config", "TMP/c.json", "filter", "--corpus", "CORPUS", "--embeddings", "EMBEDDINGS"], "usage",
                 id="config-fixed-value-overflows"),
    pytest.param({"c.json": '{"threshold": true}'}, ["--config", "TMP/c.json", "crossval", "--features", "LEARNED"],
                 "usage", id="config-threshold-true"),
    *[pytest.param({"s.json": json.dumps({"stats": {**dict.fromkeys(_SIX, 0.5), name: value}})
                    .replace('"HUGE"', "1" + "0" * 400)},
                   ["filter", "--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--stats", "TMP/s.json"], "eval",
                   id=f"stats-{name}-{case}")
      for name, value, case in (("q1", True, "true"), ("q1", "HUGE", "overflows"), ("min", "x", "text"),
                                ("mean", True, "true"), ("max", None, "null"))],
])
def test_a_value_that_is_not_a_number_gets_a_categorized_error(files, argv, category, pipeline, tmp_path, capsys):
    # true, false, a string and an integer too large for a float are not
    # numbers, wherever a setting or a report holds one (fileio).
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    fill = {"LEARNED": pipeline["learned"], "CORPUS": pipeline["corpus"], "EMBEDDINGS": pipeline["embeddings"],
            "TMP": tmp_path}
    for key, value in fill.items():
        argv = [a.replace(key, str(value)) for a in argv]
    out = tmp_path / "out.json"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]: ") and "Traceback" not in err
    assert not out.exists()


def test_config_file_supplies_defaults_and_flags_override(pipeline, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": str(pipeline["learned"]), "learner": "nb",
                                  "k": 4, "seed": 9}))
    out = tmp_path / "cv.json"
    assert run("--config", str(config), "crossval", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["config"]["trainer"]["learner"] == "NaiveBayes"
    assert report["config"]["seed"] == 9
    out2 = tmp_path / "cv2.json"
    assert run("--config", str(config), "crossval", "--seed", "1", "--out", str(out2)) == 0
    assert json.loads(out2.read_text())["config"]["seed"] == 1


def test_provenance_embedded_in_artifacts(pipeline, tmp_path):
    out = tmp_path / "cv.json"
    assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "nb",
               "--k", "4", "--seed", "2", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["provenance"]["command"] == "crossval"
    assert report["provenance"]["config"]["seed"] == 2
    assert report["config"]["trainer"]["hyperparameters"]  # full hyperparameter echo


@pytest.fixture(scope="module")
def predictions(pipeline):
    path = pipeline["root"] / "nb_predictions.csv"
    assert run("crossval", "--features", str(pipeline["learned"]), "--learner", "nb", "--k", "4",
               "--out", str(pipeline["root"] / "nb.json"), "--out-predictions", str(path)) == 0
    return path


# command -> (its flags but the output paths, each with the value given, None for none, and the value it
#             resolves to, if another; its output flags, each with a file name or None; the files of those
#             that hold provenance, embedded in JSON or in a .meta.json sidecar)
PROVENANCE_CASES = {
    "ingest": (lambda p: {"input": p["corpus"], "allow_unlabeled": (None, False)},
               {"out": "ingested.jsonl", "report": "report.json"}, ["report.json"]),
    "features": (lambda p: {"corpus": p["corpus"], "embeddings": None, "set": "engineered"},
                 {"out": "engineered.csv", "registry_out": "registry.json"}, ["engineered.csv"]),
    "stats": (lambda p: {"corpus": p["corpus"], "embeddings": p["embeddings"], "label_filter": "all"},
              {"out": "stats.json"}, ["stats.json"]),
    "filter": (lambda p: {"corpus": p["corpus"], "embeddings": p["embeddings"], "stats": None, "policy": 0.4},
               {"out": "filter.json", "out_verdicts": "verdicts.csv"}, ["filter.json", "verdicts.csv"]),
    "top1": (lambda p: {"corpus": p["corpus"], "embeddings": p["embeddings"]}, {"out": "top1.json"}, ["top1.json"]),
    "crossval": (lambda p: {"features": p["learned"], "learner": ("gbt", "GradientBoostedTrees"), "k": 4,
                            "seed": 2, "threshold": (None, 0.5), "hyper": ('{"rounds": 5}', {"rounds": 5})},
                 {"out": "cv.json", "out_predictions": "cv.csv"}, ["cv.json", "cv.csv"]),
    "combine": (lambda p: {"strategy": "concat", "learner": ("dt", "DecisionTree"),
                           "learned_features": p["learned"], "engineered_features": p["engineered"], "k": 4,
                           "seed": (None, 0), "threshold": (".25", 0.25),
                           "hyper": ('{"max_depth": 2}', {"max_depth": 2})},
                {"out": "combine.json", "out_predictions": "combine.csv"}, ["combine.json", "combine.csv"]),
    "explain": (lambda p: {"model": p["root"] / "dt.json", "features": p["learned"], "background": p["learned"],
                           "patch_id": None, "interaction": "B-0,B-1"},
                {"out": "contributions.csv", "global_out": "global.json", "interaction_out": "interactions.json",
                 "plot_data": "plot.json"}, ["contributions.csv", "global.json", "interactions.json", "plot.json"]),
    "compare": (lambda p: {"a": p["predictions"], "b": p["predictions"], "threshold": 0.3},
                {"out": "overlap.json"}, ["overlap.json"]),
}


def test_provenance_cases_name_every_flag_of_their_command():
    for command, (values, outputs, _files) in PROVENANCE_CASES.items():
        flags = cli.COMMANDS[command][2]
        assert set(values(collections.defaultdict(Path))) == {f.dest for f in flags if not f.output}
        assert set(outputs) == {f.dest for f in flags if f.output}


@pytest.mark.parametrize("command", PROVENANCE_CASES)
def test_provenance_records_every_declared_flag_but_output_paths(command, pipeline, tree_model, predictions,
                                                                 tmp_path):
    values, outputs, files = PROVENANCE_CASES[command]
    argv, expected = [command], {}
    for dest, value in values({**pipeline, "predictions": predictions}).items():
        given, resolved = value if isinstance(value, tuple) else (value, value)
        expected[dest] = str(resolved) if isinstance(resolved, Path) else resolved
        if given is not None:
            argv += [f"--{dest.replace('_', '-')}", str(given)]
    for dest, name in outputs.items():
        argv += [f"--{dest.replace('_', '-')}", str(tmp_path / name)]
    assert run(*argv) == 0
    for name in files:
        path = tmp_path / (name if name.endswith(".json") else name + ".meta.json")
        assert json.loads(path.read_text())["provenance"] == {"command": command, "config": expected}, name
    for name in set(outputs.values()) - set(files):  # the corpus, the registry: no provenance
        assert not (tmp_path / (name + ".meta.json")).exists(), name


def test_a_crossval_whose_every_test_fold_holds_one_class_prints_its_auc_as_n_a(tmp_path, capsys):
    features, out = tmp_path / "one_class_folds.csv", tmp_path / "cv.json"
    # Two bugs of correct patches, two of incorrect: each of the four test folds is one bug.
    featureio.write_features(features, [FeatureRow(f"p{bug}{j}", f"b{bug}", np.array([bug + 0.1 * j, j]), int(bug < 2))
                                        for bug in range(4) for j in range(2)], ["f0", "f1"])
    assert run("crossval", "--features", str(features), "--learner", "dt", "--k", "4", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert json.loads(out.read_text())["macro"]["auc"] is None
    assert ", AUC n/a -> " in captured.out and captured.err == ""


@pytest.mark.parametrize("fault", ["two-files", "empty-bug-id", "duplicate"])
def test_a_corpus_line_that_ingest_would_reject_or_drop_is_refused_by_the_other_commands(fault, pipeline, tmp_path,
                                                                                          capsys):
    lines = pipeline["corpus"].read_text().splitlines()
    doc = json.loads(lines[2])
    edited = {"two-files": {**doc, "diff_text": doc["diff_text"].rstrip("\n")
                            + "\ndiff --git a/G.java b/G.java\n--- a/G.java\n+++ b/G.java\n@@ -1 +1 @@\n-p\n+q\n"},
              "empty-bug-id": {**doc, "bug_id": ""},
              "duplicate": {**json.loads(lines[1]), "patch_id": "copy"}}[fault]
    corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpus_path.write_text("\n".join([*lines[:2], json.dumps(edited), *lines[3:]]) + "\n")
    for argv in (["features", "--set", "engineered"], ["fragments"], ["stats", "--embeddings", pipeline["embeddings"]]):
        assert run(*map(str, argv), "--corpus", str(corpus_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[corpus]: {corpus_path} line 3 (patch '{edited['patch_id']}'): "), err
        assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()
    report = tmp_path / "report.json"
    assert run("ingest", "--input", str(corpus_path), "--out", str(out), "--report", str(report)) == 0
    ingested = json.loads(report.read_text())["report"]
    assert (ingested["duplicates_dropped"], [r["line"] for r in ingested["rejected"]]) == (
        (1, []) if fault == "duplicate" else (0, [3]))


def test_errors_exit_nonzero(tmp_path, capsys):
    assert run("ingest", "--input", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "o.jsonl")) == 1
    err = capsys.readouterr().err
    assert "error[" in err
    with pytest.raises(SystemExit):
        run("not-a-command")


@pytest.fixture(scope="module")
def tree_model(pipeline):
    path = pipeline["root"] / "dt.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "dt",
               "--seed", "1", "--out", str(path)) == 0
    return path


def _first_patch_id(csv_path):
    return csv_path.read_text().splitlines()[1].split(",")[0]


def test_config_supplies_gen_synthetic_flags(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bugs": 3, "patches-per-bug": 2, "signal": "xor"}))
    out = tmp_path / "c.jsonl"
    assert run("--config", str(config), "gen-synthetic", "--seed", "1", "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 6
    assert len({r["bug_id"] for r in records}) == 3
    assert "signal=xor" in capsys.readouterr().out


def test_flag_beats_config_beats_default():
    args = cli.build_parser().parse_args(["crossval", "--k", "3", "--out", "r.json"])
    cli.resolve(args, {"k": 7, "seed": 9, "features": "f.csv"})
    assert (args.k, args.seed, args.threshold, args.features) == (3, 9, 0.5, "f.csv")


# Every subcommand's option strings (in --help order) and choices, which
# --help shows as the metavar {a,b,c}, as argparse shows choices.
EXPECTED_OPTIONS = {
    "ingest": [("--input", None), ("--out", None), ("--report", None), ("--allow-unlabeled", None)],
    "gen-synthetic": [("--bugs", None), ("--patches-per-bug", None),
                      ("--signal", ("learned", "engineered", "xor", "none")), ("--seed", None),
                      ("--out", None)],
    "fragments": [("--corpus", None), ("--out", None)],
    "train-embedder": [("--corpus", None), ("--out", None), ("--dim", None), ("--epochs", None),
                       ("--negative", None), ("--lr", None), ("--min-count", None),
                       ("--embedder-seed", None)],
    "embed": [("--corpus", None), ("--model", None), ("--out", None)],
    "import-embeddings": [("--embeddings", None), ("--out", None)],
    "features": [("--corpus", None), ("--embeddings", None),
                 ("--set", ("learned", "engineered", "concat")), ("--out", None),
                 ("--registry-out", None)],
    "stats": [("--corpus", None), ("--embeddings", None),
              ("--label-filter", ("correct", "incorrect", "all")), ("--out", None)],
    "filter": [("--corpus", None), ("--embeddings", None), ("--stats", None),
               ("--policy", None), ("--out", None), ("--out-verdicts", None)],
    "top1": [("--corpus", None), ("--embeddings", None), ("--out", None)],
    "train": [("--features", None), ("--learner", None), ("--seed", None), ("--hyper", None),
              ("--out", None)],
    "crossval": [("--features", None), ("--learner", None), ("--k", None), ("--seed", None),
                 ("--threshold", None), ("--hyper", None), ("--out", None),
                 ("--out-predictions", None)],
    "combine": [("--strategy", ("ensemble", "concat", "fusion")), ("--learner", None),
                ("--learned-features", None), ("--engineered-features", None), ("--k", None),
                ("--seed", None), ("--threshold", None), ("--hyper", None), ("--out", None),
                ("--out-predictions", None)],
    "explain": [("--model", None), ("--features", None), ("--background", None), ("--patch-id", None),
                ("--out", None), ("--global-out", None), ("--interaction", None), ("--interaction-out", None),
                ("--plot-data", None)],
    "compare": [("--a", None), ("--b", None), ("--threshold", None), ("--out", None)],
}


def test_subcommand_options_and_choices():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [(a.option_strings[-1], tuple(a.metavar[1:-1].split(",")) if (a.metavar or "").startswith("{") else None)
               for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in subparsers.choices.items()
    }
    assert found == EXPECTED_OPTIONS


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--features", "LEARNED", "--hyper", '{"roundz": 3}', "--out", "TMP/m.json"],
                 id="unknown-hyperparameter"),
    pytest.param(["train", "--features", "LEARNED", "--hyper", "{rounds: 3}", "--out", "TMP/m.json"],
                 id="malformed-hyper"),
    pytest.param(["--config", "TMP/bad.json", "train", "--features", "LEARNED", "--out", "TMP/m.json"],
                 id="malformed-config"),
    pytest.param(["explain", "--model", "MODEL", "--features", "LEARNED", "--interaction", "B-0"],
                 id="interaction-one-name"),
    pytest.param(["explain", "--model", "MODEL", "--features", "LEARNED", "--interaction", "B-0,nope"],
                 id="interaction-unknown-name"),
    pytest.param(["train", "--features", "LEARNED", "--learner", "nb", "--out", "TMP"],
                 id="out-is-a-directory"),
    pytest.param(["--config", "TMP/wrong_type.json", "train", "--features", "LEARNED", "--out", "TMP/m.json"],
                 id="config-value-of-wrong-type"),
    pytest.param(["--config", "TMP/no_choice.json", "gen-synthetic", "--out", "TMP/c.jsonl"],
                 id="config-value-outside-choices"),
    pytest.param(["--config", "TMP/bool_count.json", "gen-synthetic", "--out", "TMP/c.jsonl"],
                 id="config-bool-for-a-count"),
    pytest.param(["filter", "--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--stats", "TMP/wrong_type.json",
                  "--out", "TMP/f.json"], id="stats-file-without-stats"),
    pytest.param(["--config", "TMP/list.json", "gen-synthetic", "--out", "TMP/c.jsonl"], id="config-not-an-object"),
    pytest.param(["filter", "--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--stats", "TMP/list.json",
                  "--out", "TMP/f.json"], id="stats-file-not-an-object"),
    pytest.param(["explain", "--model", "TMP/list.json", "--features", "LEARNED", "--out", "TMP/x.csv"],
                 id="model-not-an-object"),
    pytest.param(["embed", "--corpus", "CORPUS", "--model", "TMP/list.json", "--out", "TMP/e.jsonl"],
                 id="embedder-not-an-object"),
    pytest.param(["--config", "TMP/unknown_embedder.json", "train-embedder", "--corpus", "CORPUS",
                  "--out", "TMP/e.json"], id="config-unknown-embedder-setting"),
    pytest.param(["--config", "TMP/embedder_not_object.json", "train-embedder", "--corpus", "CORPUS",
                  "--out", "TMP/e.json"], id="config-embedder-not-an-object"),
    pytest.param(["--config", "TMP/hyper_not_object.json", "train", "--features", "LEARNED",
                  "--out", "TMP/m.json"], id="config-hyperparameters-not-an-object"),
    pytest.param(["--config", "TMP/hyper_entry_not_object.json", "train", "--features", "LEARNED",
                  "--out", "TMP/m.json"], id="config-hyperparameters-entry-not-an-object"),
    pytest.param(["explain", "--model", "TMP/model_no_params.json", "--features", "LEARNED",
                  "--out", "TMP/x.csv"], id="model-without-params"),
    pytest.param(["explain", "--model", "TMP/model_child_99.json", "--features", "LEARNED",
                  "--out", "TMP/x.csv"], id="model-child-out-of-range"),
    pytest.param(["explain", "--model", "TMP/model_wide_feature.json", "--features", "LEARNED",
                  "--out", "TMP/x.csv"], id="model-feature-out-of-range"),
    pytest.param(["train-embedder", "--corpus", "CORPUS", "--lr", "1e10", "--epochs", "20", "--out", "TMP/e.json"],
                 id="embedder-diverges"),
    *[pytest.param([*command, "--threshold", value, "--out", "TMP/r.json"], id=f"{command[0]}-threshold-{value}")
      for command in (["crossval", "--features", "LEARNED"],
                      ["combine", "--strategy", "concat", "--learned-features", "LEARNED",
                       "--engineered-features", "ENGINEERED"])
      for value in ("nan", "-0.1", "1.5")],
])
def test_bad_input_gets_categorized_error(argv, pipeline, tree_model, tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"k": 3,')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "wrong_type.json").write_text('{"seed": "3"}')
    (tmp_path / "no_choice.json").write_text('{"signal": "loud"}')
    (tmp_path / "bool_count.json").write_text('{"bugs": true}')
    (tmp_path / "unknown_embedder.json").write_text('{"embedder": {"window": 5}}')
    (tmp_path / "embedder_not_object.json").write_text('{"embedder": 5}')
    (tmp_path / "hyper_not_object.json").write_text('{"hyperparameters": 5}')
    (tmp_path / "hyper_entry_not_object.json").write_text('{"hyperparameters": {"GradientBoostedTrees": 3}}')
    _write_broken_models(tree_model, tmp_path)
    fill = {"LEARNED": pipeline["learned"], "ENGINEERED": pipeline["engineered"], "MODEL": tree_model,
            "CORPUS": pipeline["corpus"],
            "EMBEDDINGS": pipeline["embeddings"], "TMP": tmp_path}
    for key, value in fill.items():
        argv = [a.replace(key, str(value)) for a in argv]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "error[" in err
    if "--lr" in argv:  # a diverging embedder, not a RuntimeWarning
        assert "error[embed]" in err
    if "--threshold" in argv:  # NaN is no number; a number outside [0, 1] is crossval's to refuse
        assert ("error[usage]: --threshold must be a number, got nan" in err if "nan" in argv
                else "error[eval]" in err and "is not in [0, 1]" in err)
    if any(a.endswith("list.json") for a in argv):
        assert "list.json: not a" in err and "it holds no JSON object" in err


def _write_broken_models(tree_model, tmp_path):
    """The saved decision tree without params, with a child index past its
    end and with a split on a column past feature_count."""
    doc = json.loads(tree_model.read_text())
    tree = doc["params"]["tree"]
    split = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
    edits = {"model_no_params": {**doc, "params": {}},
             "model_child_99": {**doc, "params": {"tree": {**tree, "left": [
                 99 if i == split else v for i, v in enumerate(tree["left"])]}}},
             "model_wide_feature": {**doc, "params": {"tree": {**tree, "feature": [
                 doc["feature_count"] if i == split else v for i, v in enumerate(tree["feature"])]}}}}
    for name, edited in edits.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(edited))


@pytest.mark.parametrize("name", ["model_no_params", "model_child_99", "model_wide_feature"])
def test_broken_model_file_is_a_learn_error_naming_it(name, pipeline, tree_model, tmp_path, capsys):
    _write_broken_models(tree_model, tmp_path)
    path = tmp_path / f"{name}.json"
    assert run("explain", "--model", str(path), "--features", str(pipeline["learned"]),
               "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert "error[learn]" in err and str(path) in err


def test_interaction_default_goes_under_outdir(pipeline, tree_model, tmp_path, monkeypatch):
    monkeypatch.setenv("PATCHPRED_OUTDIR", str(tmp_path / "outdir"))
    monkeypatch.chdir(tmp_path)
    assert run("explain", "--model", str(tree_model), "--features", str(pipeline["learned"]),
               "--patch-id", _first_patch_id(pipeline["learned"]), "--interaction", "B-0,B-1") == 0
    assert (tmp_path / "outdir" / "interactions.json").exists()
    assert not (tmp_path / "interactions.json").exists()


def test_interactions_json_holds_interaction_pairs_of_every_row(pipeline, tmp_path):
    model_path = tmp_path / "rf.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "rf", "--seed", "1",
               "--out", str(model_path)) == 0
    model = learn.load(model_path)
    names, rows = featureio.read_features(pipeline["learned"])
    split = sorted({int(f) for tree in model.trees for f in tree.feature if f >= 0})
    a, b = split[0], split[1]
    out = tmp_path / "interactions.json"
    assert run("explain", "--model", str(model_path), "--features", str(pipeline["learned"]),
               "--interaction", f"{names[a]},{names[b]}", "--interaction-out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["pair"] == [names[a], names[b]] and doc["space"] == "probability"
    background = np.array([r.features for r in rows])
    expected = [{"patch_id": r.patch_id, "value": value}  # one call per row: the same bits as the batch
                for r in rows for value in explain.interaction_pairs(model, [r.features], a, b, background)]
    assert doc["values"] == expected
    assert any(v["value"] != 0.0 for v in expected)


def test_explain_that_refuses_an_interaction_writes_no_file(pipeline, tmp_path, capsys):
    model_path = tmp_path / "lr.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "lr", "--seed", "1",
               "--out", str(model_path)) == 0
    outs = {flag: tmp_path / name for flag, name in (("--out", "c.csv"), ("--global-out", "g.json"),
                                                     ("--interaction-out", "i.json"), ("--plot-data", "p.json"))}
    assert run("explain", "--model", str(model_path), "--features", str(pipeline["learned"]),
               "--interaction", "B-0,B-1", *(a for flag, path in outs.items() for a in (flag, str(path)))) == 1
    assert "error[explain]" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["lr.json"]


def test_explain_refuses_background_with_other_columns(pipeline, tree_model, tmp_path, capsys):
    names, rows = featureio.read_features(pipeline["learned"])
    order = [1, 0] + list(range(2, len(names)))
    background = tmp_path / "background.csv"
    featureio.write_features(background, [FeatureRow(r.patch_id, r.bug_id, r.features[order], r.label)
                                          for r in rows], [names[i] for i in order])
    assert run("explain", "--model", str(tree_model), "--features", str(pipeline["learned"]),
               "--background", str(background), "--out", str(tmp_path / "x.csv")) == 1
    assert "error[features]" in capsys.readouterr().err


def test_concat_features_join_learned_and_engineered_by_patch_id(pipeline, tmp_path):
    out = tmp_path / "concat.csv"
    assert run("features", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--set", "concat", "--out", str(out)) == 0
    names, rows = featureio.read_features(out)
    learned_names, learned = featureio.read_features(pipeline["learned"])
    engineered_names, engineered = featureio.read_features(pipeline["engineered"])
    assert names == learned_names + engineered_names
    assert [r.patch_id for r in rows] == [r.patch_id for r in learned]
    by_id = {r.patch_id: r for r in engineered}
    for row, left in zip(rows, learned):
        assert np.array_equal(row.features, np.concatenate([left.features, by_id[row.patch_id].features]))


def test_global_out_totals_the_learned_and_engineered_blocks(pipeline, tmp_path):
    concat = tmp_path / "concat.csv"
    assert run("features", "--corpus", str(pipeline["corpus"]), "--embeddings", str(pipeline["embeddings"]),
               "--set", "concat", "--out", str(concat)) == 0
    model, importance = tmp_path / "model.json", tmp_path / "importance.json"
    assert run("train", "--features", str(concat), "--learner", "gbt", "--hyper", '{"rounds": 20}',
               "--out", str(model)) == 0
    assert run("explain", "--model", str(model), "--features", str(concat), "--global-out", str(importance)) == 0
    report = json.loads(importance.read_text())
    learned_names = set(featureio.read_features(pipeline["learned"])[0])
    sums = {"learned": 0.0, "engineered": 0.0}
    for entry in report["ranking"]:
        sums["learned" if entry["feature"] in learned_names else "engineered"] += entry["mean_abs_contribution"]
    assert sums["learned"] > 0 and sums["engineered"] > 0
    blocks = report["blocks"]
    assert set(blocks) == {"learned", "engineered"}
    for block, total in sums.items():
        assert blocks[block]["sum_mean_abs_contribution"] == pytest.approx(total, rel=1e-12)
        assert blocks[block]["share"] == pytest.approx(total / sum(sums.values()), rel=1e-12)


def test_align_needs_every_patch_once(pipeline):
    _names, rows = featureio.read_features(pipeline["learned"])
    with pytest.raises(FeatureError, match="in the engineered features but not in the learned features"):
        featureio.align(rows[1:], rows)
    assert [a.patch_id for a, _b in featureio.align(rows[1:], rows, complete=False)] == \
        [r.patch_id for r in rows[1:]]
    with pytest.raises(FeatureError, match="appears twice"):
        featureio.align(rows + rows[:1], rows)


def test_join_refuses_a_patch_repeated_in_a_feature_file(pipeline, tmp_path):
    # The engineered file's first patch again, with other values: no copy wins.
    lines = pipeline["engineered"].read_text().splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    repeated = tmp_path / "engineered.csv"
    repeated.write_text("".join(lines) + ",".join(fields[:3] + ["7.0"] * (len(fields) - 3)) + "\n")
    with pytest.raises(FeatureError, match=f"{repeated} line {len(lines) + 1}: patch {fields[0]!r} "
                                           f"is already on line 2$"):
        featureio.join_feature_sets(pipeline["learned"], repeated)


@pytest.mark.parametrize("command, learner, hyper", [
    ("train", "rf", {"max_features": "log2"}),
    ("train", "rf", {"max_features": 0}),
    ("train", "rf", {"max_features": 2.5}),
    ("train", "rf", {"n_trees": 0}),
    ("crossval", "rf", {"n_trees": 0}),
    ("train", "rf", {"max_depth": "3"}),
    ("train", "dt", {"max_depth": -1}),
    ("train", "dt", {"min_leaf": 0}),
    ("train", "gbt", {"min_leaf": True}),
    ("train", "gbt", {"rounds": 0}),
    ("train", "gbt", {"learning_rate": 0}),
    ("train", "gbt", {"learning_rate": "0.1"}),
    ("train", "gbt", {"l2": -1.0}),
    ("train", "lr", {"l2": float("nan")}),
])
def test_invalid_tree_hyperparameters_get_learn_error(pipeline, tmp_path, capsys, command, learner, hyper):
    out = tmp_path / "out.json"
    argv = [command, "--features", str(pipeline["learned"]), "--learner", learner,
            "--hyper", json.dumps(hyper), "--out", str(out)]
    assert run(*argv + (["--k", "3"] if command == "crossval" else [])) == 1
    err = capsys.readouterr().err
    key = next(iter(hyper))
    assert err.startswith("error[learn]: ") and repr(key) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, category", [
    *[pytest.param(["train", "--features", "LEARNED", "--learner", learner], "usage", id=f"train-{learner}")
      for learner in ("lr", "nb", "dt", "rf", "gbt", "dnn")],
])
def test_a_negative_seed_gets_a_categorized_error(argv, category, pipeline, tmp_path, capsys):
    # numpy's rule for a seed, an integer >= 0, is the --seed flag's, for
    # every learner (dt, lr and gbt never draw from it).
    out = tmp_path / "out"
    fill = {"LEARNED": str(pipeline["learned"])}
    assert run(*[fill.get(a, a) for a in argv], "--seed", "-1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]: ") and "seed must be an integer >= 0, got -1" in err
    assert "Traceback" not in err and not out.exists()


# float() reads "1_0", "１" (full-width) and " 2 ", but a number in a file
# is spelled as JSON spells one (fileio.number_text).
@pytest.mark.parametrize("record, message", [
    ("p1,b1", "line 2: patch 'p1' has 2 fields"),
    ("p1,b1,yes,0.5", "line 2: patch 'p1' has label 'yes'"),
    ("p1,b1,1,abc", "line 2: patch 'p1' has a value that is not a number"),
    *[(f"p1,b1,1,{value}", f"line 2: patch 'p1' has a value that is not a number: {value!r}")
      for value in ("1_0", "\uff11", " 2 ")],
    # A patch named twice, in a copy of its row or with other values.
    ("p2,b2,0,1.0", "line 3: patch 'p2' is already on line 2"),
    ("p2,b2,1,0.0", "line 3: patch 'p2' is already on line 2"),
], ids=["two-fields", "label-yes", "value-abc", "value-underscore", "value-full-width", "value-spaces",
        "repeated-row", "repeated-patch"])
def test_malformed_feature_record_is_a_features_error_naming_file_and_line(tmp_path, capsys, record, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"patch_id,bug_id,label,x\n{record}\np2,b2,0,1.0\n", encoding="utf-8")
    assert run("train", "--features", str(path), "--out", str(tmp_path / "m.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[features]: ") and f"{path} {message}" in err


def _unlabel_first_row(src, dst):
    """Copy a feature CSV with the label of its first row blanked; its patch_id."""
    lines = src.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    dst.write_text("".join(lines[:1] + [",".join(fields[:2] + [""] + fields[3:])] + lines[2:]))
    return fields[0]


# One check refuses the row for all three: Dataset.labeled for train, and
# crossval's before any fold for crossval and combine.
@pytest.mark.parametrize("command, category", [
    ("train", "learn"), ("crossval", "learn"), ("combine", "learn"),
])
def test_unlabeled_feature_row_names_the_patch(pipeline, tmp_path, capsys, command, category):
    learned, engineered = tmp_path / "learned.csv", tmp_path / "engineered.csv"
    patch_id = _unlabel_first_row(pipeline["learned"], learned)
    assert _unlabel_first_row(pipeline["engineered"], engineered) == patch_id
    argv = {"train": ["--features", str(learned)],
            "crossval": ["--features", str(learned), "--k", "3"],
            "combine": ["--learned-features", str(learned), "--engineered-features", str(engineered),
                        "--k", "3"]}[command]
    out = tmp_path / "out.json"
    assert run(command, *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]: ") and repr(patch_id) in err and "unlabeled" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["crossval", "combine"])
def test_one_fold_is_refused_with_an_eval_error(pipeline, tmp_path, capsys, command):
    argv = {"crossval": ["--features", str(pipeline["learned"])],
            "combine": ["--learned-features", str(pipeline["learned"]),
                        "--engineered-features", str(pipeline["engineered"])]}[command]
    out = tmp_path / "out.json"
    assert run(command, *argv, "--k", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error[eval]: k must be at least 2")
    assert not out.exists()


# --- the config file: one reader, every entry checked ---------------------------

@pytest.mark.parametrize("config, argv, message", [
    pytest.param({"tresholds": 0.9, "kk": 3}, ["crossval", "--features", "LEARNED", "--learner", "nb", "--k", "4"],
                 "error[usage]: unknown config entries ['kk', 'tresholds']: an entry is a flag's name, outdir or "
                 "hyperparameters\n", id="misspelled-entries"),
    pytest.param({"epochs": 2, "embedder": {"epochs": 50}}, ["train-embedder", "--corpus", "CORPUS"],
                 "error[usage]: unknown config entries ['embedder']: an entry is a flag's name, outdir or "
                 "hyperparameters; the embedder's settings are the entries dim, epochs, negative, lr, min-count and "
                 "embedder-seed\n", id="embedder-section"),
    pytest.param({"hyperparameters": {"RandomForrest": {"n_trees": 3}}},
                 ["crossval", "--features", "LEARNED", "--learner", "rf", "--k", "4"],
                 "error[usage]: \"hyperparameters\" key 'RandomForrest' names no learner: one of lr|nb|dt|rf|gbt|dnn|"
                 "LogisticRegression|NaiveBayes|DecisionTree|RandomForest|GradientBoostedTrees|FeedForwardNet|"
                 "DeepFusion\n", id="unknown-learner-key"),
    pytest.param({"hyperparameters": {"rf": {"n_trees": 3}, "RandomForest": {"n_trees": 4}}},
                 ["crossval", "--features", "LEARNED", "--learner", "rf", "--k", "4"],
                 "error[usage]: \"hyperparameters\" keys ['rf', 'RandomForest'] name one learner, RandomForest\n",
                 id="doubled-learner-key"),
    pytest.param({"hyperparameters": {"GradientBoostedTrees": 3}}, ["train", "--features", "LEARNED"],
                 "error[usage]: config entry \"hyperparameters\" must map learner names to JSON objects, got "
                 "{'GradientBoostedTrees': 3}\n",
                 id="entry-not-an-object"),
    pytest.param({"hyperparameters": {"rf": {"n_trees": 0}}},
                 ["crossval", "--features", "LEARNED", "--learner", "nb", "--k", "4"],
                 "error[learn]: RandomForest hyperparameter 'n_trees' must be an integer >= 1, got 0\n",
                 id="bad-value-of-another-learner"),
    pytest.param({"hyperparameters": {"DeepFusion": {"widht": 3}}}, ["gen-synthetic", "--bugs", "3"],
                 "error[learn]: unknown DeepFusion hyperparameter 'widht'; known: ['engineered_width', 'epochs', "
                 "'joint_width', 'l2', 'learned_width', 'learning_rate', 'standardize']\n",
                 id="bad-key-for-a-command-without-a-learner"),
    pytest.param({"learner": "abc"}, ["train", "--features", "LEARNED"],
                 "error[usage]: --learner must be one of lr|nb|dt|rf|gbt|dnn|LogisticRegression|NaiveBayes|"
                 "DecisionTree|RandomForest|GradientBoostedTrees|FeedForwardNet, got 'abc'\n", id="config-learner-abc"),
    pytest.param({}, ["train", "--features", "LEARNED", "--learner", "abc"],
                 "error[usage]: --learner must be one of lr|nb|dt|rf|gbt|dnn|LogisticRegression|NaiveBayes|"
                 "DecisionTree|RandomForest|GradientBoostedTrees|FeedForwardNet, got 'abc'\n", id="learner-abc"),
    pytest.param({}, ["train", "--features", "LEARNED", "--learner", "DeepFusion"],
                 "error[usage]: --learner must be one of ", id="learner-deep-fusion"),
    pytest.param({}, ["crossval", "--features", "LEARNED", "--hyper", "abc"],
                 "error[usage]: --hyper must be text holding a JSON object, got 'abc'\n", id="hyper-abc"),
    pytest.param({"hyper": "[1]"}, ["crossval", "--features", "LEARNED"],
                 "error[usage]: --hyper must be text holding a JSON object, got '[1]'\n", id="config-hyper-a-list"),
    pytest.param({"background-cap": 600}, ["explain", "--model", "MODEL", "--features", "LEARNED"],
                 "error[usage]: unknown config entries ['background-cap']: an entry is a flag's name, outdir or "
                 "hyperparameters\n", id="background-cap-is-gone"),
    pytest.param({"outdir": 5}, ["gen-synthetic", "--bugs", "3"],
                 "error[usage]: config entry \"outdir\" must be a string, got 5\n", id="outdir-a-number"),
])
def test_a_config_or_flag_that_breaks_a_rule_is_refused_with_one_line(config, argv, message, pipeline, tree_model,
                                                                      tmp_path, capsys):
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    fill = {"LEARNED": str(pipeline["learned"]), "CORPUS": str(pipeline["corpus"]), "MODEL": str(tree_model)}
    assert run("--config", str(path), *[fill.get(a, a) for a in argv], "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("alias, name, hyperparameters", [
    ("nb", "NaiveBayes", {"var_smoothing": 1e-3}),
    ("rf", "RandomForest", {"n_trees": 3}),
])
def test_a_hyperparameters_key_may_be_a_learners_alias(alias, name, hyperparameters, pipeline, tmp_path):
    reports = []
    for key in (alias, name):
        config, out = tmp_path / f"{key}.json", tmp_path / f"cv_{key}.json"
        config.write_text(json.dumps({"hyperparameters": {key: hyperparameters}}))
        assert run("--config", str(config), "crossval", "--features", str(pipeline["learned"]),
                   "--learner", alias, "--k", "4", "--out", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    echoed = json.loads(reports[0])["config"]["trainer"]["hyperparameters"]
    assert echoed == {**learn.resolved_config(name, None), **hyperparameters}


def test_hyper_updates_the_config_entry_key_by_key(pipeline, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "cv.json"
    config.write_text(json.dumps({"hyperparameters": {"gbt": {"rounds": 5, "max_depth": 2}}}))
    assert run("--config", str(config), "crossval", "--features", str(pipeline["learned"]), "--k", "4",
               "--hyper", '{"rounds": 7}', "--out", str(out)) == 0
    echoed = json.loads(out.read_text())["config"]["trainer"]["hyperparameters"]
    assert (echoed["rounds"], echoed["max_depth"]) == (7, 2)


@pytest.mark.parametrize("strategy", ["ensemble", "fusion"])
def test_combine_through_the_cli_is_the_in_process_crossval(strategy, pipeline, tmp_path):
    # The learner's entry goes to the ensemble, DeepFusion's to fusion,
    # which ignores --learner and records DeepFusion, the learner it ran.
    config, out, predictions = tmp_path / "config.json", tmp_path / "combine.json", tmp_path / "combine.csv"
    config.write_text(json.dumps({"hyperparameters": {"dt": {"max_depth": 2}, "DeepFusion": {"epochs": 5}}}))
    assert run("--config", str(config), "combine", "--strategy", strategy, "--learner", "dt",
               "--learned-features", str(pipeline["learned"]), "--engineered-features", str(pipeline["engineered"]),
               "--k", "4", "--seed", "3", "--out", str(out), "--out-predictions", str(predictions)) == 0
    trainer = (evaluate.EnsembleTrainer("DecisionTree", {"max_depth": 2}) if strategy == "ensemble"
               else evaluate.FusionTrainer({"epochs": 5}))
    _lnames, _enames, joint = featureio.join_feature_sets(pipeline["learned"], pipeline["engineered"])
    expected = evaluate.crossval(joint, trainer, k=4, seed=3)
    expected_predictions = expected.pop("predictions")
    report = json.loads(out.read_text())
    assert report.pop("provenance")["config"]["learner"] == ("DecisionTree" if strategy == "ensemble" else "DeepFusion")
    assert report == json.loads(json.dumps(expected))
    assert evaluate.read_predictions(predictions) == json.loads(json.dumps(expected_predictions))


def test_a_missing_required_flag_is_a_usage_error_and_writes_nothing(pipeline, tmp_path, capsys):
    predictions = tmp_path / "p.csv"
    assert run("crossval", "--features", str(pipeline["learned"]), "--out-predictions", str(predictions)) == 1
    assert capsys.readouterr().err == "error[usage]: missing required --out (flag or config file entry)\n"
    assert list(tmp_path.iterdir()) == []


# --- explain: the whole background, a background file and the plot data --------

def test_explain_uses_every_row_of_the_features_past_512(tmp_path):
    # A deep tree on 600 rows of continuous values has leaves of one row,
    # which a subsample of the rows would leave uncovered.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(600, 4))
    rows = [FeatureRow(f"p{i}", f"b{i // 3}", x, int(x[0] * x[1] + 0.3 * rng.normal() > 0)) for i, x in enumerate(X)]
    names, features, model = ["a", "b", "c", "d"], tmp_path / "features.csv", tmp_path / "dt.json"
    featureio.write_features(features, rows, names)
    assert run("train", "--features", str(features), "--learner", "dt", "--out", str(model)) == 0
    out = tmp_path / "contributions.csv"
    assert run("explain", "--model", str(model), "--features", str(features), "--out", str(out)) == 0
    data = learn.Dataset.of(featureio.read_features(features)[1])
    expected = explain.explain_rows(learn.load(model), data.X, data.X, data.patch_ids)
    assert [line.split(",") for line in out.read_text().splitlines()[1:]] == [
        [exp.patch_id, name, repr(float(value))] for exp in expected for name, value in zip(names, exp.contributions)]


def test_explain_uses_every_row_of_background(pipeline, tmp_path):
    # A linear model: any background covers it, where a tree's nodes need rows.
    model = tmp_path / "lr.json"
    assert run("train", "--features", str(pipeline["learned"]), "--learner", "lr", "--out", str(model)) == 0
    names, rows = featureio.read_features(pipeline["learned"])
    featureio.write_features(tmp_path / "background.csv", rows[5:30], names)
    out = tmp_path / "contributions.csv"
    assert run("explain", "--model", str(model), "--features", str(pipeline["learned"]),
               "--background", str(tmp_path / "background.csv"), "--out", str(out)) == 0
    data = learn.Dataset.of(rows)
    expected = explain.explain_rows(learn.load(model), data.X, learn.Dataset.of(rows[5:30]).X, data.patch_ids)
    written = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert written == [[exp.patch_id, name, repr(float(value))]
                       for exp in expected for name, value in zip(names, exp.contributions)]
    # The file's rows are the background: the features' own rows explain otherwise.
    whole = explain.explain_rows(learn.load(model), data.X, data.X, data.patch_ids)
    assert any(not np.array_equal(a.contributions, b.contributions) for a, b in zip(expected, whole))


def test_explain_plot_data_holds_the_rows_and_their_contributions(pipeline, tree_model, tmp_path):
    out, plot = tmp_path / "contributions.csv", tmp_path / "plot.json"
    assert run("explain", "--model", str(tree_model), "--features", str(pipeline["learned"]),
               "--out", str(out), "--plot-data", str(plot)) == 0
    names, rows = featureio.read_features(pipeline["learned"])
    doc = json.loads(plot.read_text())
    assert doc["features"] == names and doc["space"] == "probability"
    assert [p["patch_id"] for p in doc["points"]] == [r.patch_id for r in rows]
    assert [p["values"] for p in doc["points"]] == [r.features.tolist() for r in rows]
    written = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert [c for p in doc["points"] for c in p["contributions"]] == written
