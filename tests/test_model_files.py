"""One-field edits of every model file the CLI reads, trained on a seeded
corpus: the six learner files and the embedder file. Each edited file goes through cli.main, with
RuntimeWarnings raised as errors (pyproject.toml's pytest filterwarnings,
and the CI step's -W error::RuntimeWarning). A run passes if it exits 1 with
error[<category>], or exits 0 with finite outputs. A learner file that does
not end in error[learn] must also load and predict finite probabilities in
[0, 1] on the feature rows. Where true, false or a string replaces a number,
only error[<category>] passes: numpy would read them as 1, 0 or 0.5 and
give a finite answer from a file that holds no number there."""

import copy
import csv
import json
import math

import numpy as np
import pytest

from patchpred import cli, featureio, learn
from patchpred.errors import PatchPredError

KINDS = ("lr", "nb", "dt", "rf", "gbt", "dnn")

# What an edit sets a field to. 10**6 is an integer, so a count reads it as
# a legal but large value; 10**400 is an integer too large for a float.
VALUES = (math.nan, math.inf, -math.inf, -1, 10**6, 10**400, 1e308, "x", "0.5", None, [], True)

# Valid but huge sizes are not bad input, and these two embedder settings at
# 10**6 would run for hours: inference draws epochs x negative_samples ids
# per token. The same holds for 10**400.
HUGE = {("config", "epochs"), ("config", "negative_samples")}
HUGE_VALUES = (10**6, 10**400)

# The embedder's training_report is a record of its fit that nothing reads
# back, so a value there is not a number that a run uses.
UNREAD = ("training_report",)


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small corpus, its embedder and learned features, and a model file of
    each kind trained on them with the default settings."""
    root = tmp_path_factory.mktemp("model_files")
    paths = {name: root / name for name in ("corpus.jsonl", "embedder.json", "embeddings.jsonl", "learned.csv")}
    assert run("gen-synthetic", "--bugs", "10", "--patches-per-bug", "4", "--signal", "learned", "--seed", "5",
               "--out", paths["corpus.jsonl"]) == 0
    assert run("train-embedder", "--corpus", paths["corpus.jsonl"], "--dim", "8", "--epochs", "30",
               "--out", paths["embedder.json"]) == 0
    assert run("embed", "--corpus", paths["corpus.jsonl"], "--model", paths["embedder.json"],
               "--out", paths["embeddings.jsonl"]) == 0
    assert run("features", "--corpus", paths["corpus.jsonl"], "--embeddings", paths["embeddings.jsonl"],
               "--set", "learned", "--out", paths["learned.csv"]) == 0
    for kind in KINDS:
        paths[kind] = root / f"{kind}.json"
        assert run("train", "--features", paths["learned.csv"], "--learner", kind, "--seed", "42",
                   "--out", paths[kind]) == 0
    return paths


def _fields(doc, path=()):
    """The path of every entry an edit replaces: each entry of each object,
    and the first of each list and of the vocabulary, all the way down."""
    if isinstance(doc, dict):
        entries = list(doc.items())[:1] if path[-1:] == ("vocabulary",) else doc.items()
    elif isinstance(doc, list):
        entries = list(enumerate(doc))[:1]
    else:
        return
    for key, value in entries:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _numbers(doc, path=()):
    """The path of every list of numbers, at any depth of nesting."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(doc, list) and doc:
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc) or \
                all(isinstance(v, list) and v and not isinstance(v[0], dict) for v in doc):
            yield path
        elif isinstance(doc[0], (dict, list)):
            yield from _numbers(doc[0], path + (0,))


def _fill(value, fill):
    return [_fill(v, fill) for v in value] if isinstance(value, list) else fill


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _edits(doc, huge=()):
    """(name, edited document, whether a bool or a string replaced a number)
    for every field and every value: the entry replaced, and each list of
    numbers with every number replaced; HUGE_VALUES are left out for the
    paths in `huge`."""
    for mode, paths in (("set", list(_fields(doc))), ("fill", list(_numbers(doc)))):
        for path in paths:
            for value in VALUES:
                if path in huge and value in HUGE_VALUES:
                    continue
                edited = copy.deepcopy(doc)
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                was_number = mode == "fill" or _is_number(parent[path[-1]])
                parent[path[-1]] = value if mode == "set" else _fill(parent[path[-1]], value)
                refused = was_number and isinstance(value, (bool, str)) and path[0] not in UNREAD
                yield f"{mode} {'.'.join(map(str, path))} = {value!r}", edited, refused


def _finite_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return all(math.isfinite(float(row["contribution"])) for row in csv.DictReader(fh))


def _finite_jsonl(path):
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return all(np.all(np.isfinite(r["buggy_vec"])) and np.all(np.isfinite(r["patched_vec"])) for r in records)


@pytest.mark.parametrize("name", KINDS + ("embedder",))
def test_one_field_edits_of_a_model_file_end_in_an_error_or_a_finite_answer(saved, name, tmp_path, capsys):
    source = saved["embedder.json" if name == "embedder" else name]
    doc = json.loads(source.read_text(encoding="utf-8"))
    edited_path, out = tmp_path / source.name, tmp_path / "out"
    X = learn.Dataset.of(featureio.read_features(saved["learned.csv"])[1]).X
    failures = []
    for what, edited, refused in _edits(doc, HUGE if name == "embedder" else ()):
        edited_path.write_text(json.dumps(edited), encoding="utf-8")
        out.unlink(missing_ok=True)
        try:
            if name == "embedder":
                status = run("embed", "--corpus", saved["corpus.jsonl"], "--model", edited_path, "--out", out)
            else:
                status = run("explain", "--model", edited_path, "--features", saved["learned.csv"], "--out", out)
            err = capsys.readouterr().err
            categorized = status == 1 and err.startswith("error[")
            at_entry = err.startswith("error[embed]" if name == "embedder" else "error[learn]")
            if categorized and at_entry:
                continue  # refused where the file enters
            if refused:
                failures.append(f"{what}: exit {status}, not refused where the file enters: {err.strip()}")
                continue
            if not (categorized or status == 0 and (_finite_jsonl if name == "embedder" else _finite_csv)(out)):
                failures.append(f"{what}: exit {status}: {err.strip() or 'non-finite outputs'}")
                continue
            if name != "embedder":  # it loaded: its probabilities must be finite and in [0, 1]
                p = learn.load(edited_path).predict_proba_batch(X)
                if not np.all((p >= 0) & (p <= 1)):
                    failures.append(f"{what}: loads and predicts {p[:3]} ...")
        except PatchPredError:  # a categorized refusal to predict
            pass
        except Exception as exc:  # a crash, or a RuntimeWarning raised as an error
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
