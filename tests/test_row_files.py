"""Seeded one-line and one-cell edits of every row file the CLI reads: the
corpus JSONL (through ingest, and through features --set engineered and
fragments), the embeddings JSONL (through import-embeddings, and through
features --set learned and stats, which compute on the vectors), a feature
CSV (train) and a prediction CSV (compare). Each edited file goes through
cli.main, with RuntimeWarnings raised as errors (pyproject.toml's pytest
filterwarnings, and the CI step's -W error::RuntimeWarning). A run passes if
it exits 1 with error[<category>], or exits 0 with finite outputs, a CSV's
included; for the corpus, a line that ingest rejects is an exit 0 of ingest,
and the other commands, which read the corpus whole, exit 1 naming the file
and the edited line, or exit 0 with one output row per record."""

import json
import math
import random

import numpy as np
import pytest

from patchpred import cli, corpus, embed, featureio

NOT_UTF8 = b"\xff"
DEEP = "[" * 10**5 + "]" * 10**5  # nested past any recursion limit
OVERSIZED = "9" * (2**17 + 1)  # one character over csv's default field limit

# What an edit sets a JSON field or a CSV cell to.
JSON_VALUES = (math.nan, math.inf, -math.inf, 1e200, -1e200, True, None, "x", "", OVERSIZED, DEEP)
CSV_VALUES = ("nan", "inf", "-inf", "true", "null", "x", "", OVERSIZED, DEEP)


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small corpus, seeded vectors for it, its engineered features and
    out-of-fold predictions."""
    root = tmp_path_factory.mktemp("row_files")
    paths = {name: root / name for name in ("corpus.jsonl", "embeddings.jsonl", "features.csv", "predictions.csv")}
    assert run("gen-synthetic", "--bugs", "10", "--patches-per-bug", "4", "--seed", "5",
               "--out", paths["corpus.jsonl"]) == 0
    ids = [json.loads(line)["patch_id"] for line in paths["corpus.jsonl"].read_text(encoding="utf-8").splitlines()]
    rng = np.random.default_rng(5)
    embed.export_embeddings([embed.EmbeddingPair(pid, rng.normal(size=4), rng.normal(size=4), "seeded", 4)
                             for pid in ids], paths["embeddings.jsonl"])
    assert run("features", "--corpus", paths["corpus.jsonl"], "--set", "engineered",
               "--out", paths["features.csv"]) == 0
    assert run("crossval", "--features", paths["features.csv"], "--learner", "nb", "--k", "4",
               "--out", root / "crossval.json", "--out-predictions", paths["predictions.csv"]) == 0
    return paths


def _jsonl_edits(lines, rng):
    """(name, edited lines as bytes) for one seeded line: each field set to
    each value or dropped, each vector's seeded entry set to each value, a
    field added, a byte that is not UTF-8, and the whole line nested deep."""
    number = rng.randrange(len(lines))
    doc = json.loads(lines[number])

    def edited(name, text):
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        return name, b"".join(data + b"\n" if i == number else line.encode("utf-8") + b"\n"
                              for i, line in enumerate(lines))

    def dumped(value):  # DEEP is spliced in as text: json.dumps would recurse too deep
        return json.dumps(value).replace(json.dumps("<deep>"), DEEP)

    for key in doc:
        for value in JSON_VALUES:
            fill = "<deep>" if value is DEEP else value
            yield edited(f"{key} = {value!r:.20}", dumped({**doc, key: fill}))
            if isinstance(doc[key], list):
                entry = rng.randrange(len(doc[key]))
                vector = doc[key][:entry] + [fill] + doc[key][entry + 1:]
                yield edited(f"{key}[{entry}] = {value!r:.20}", dumped({**doc, key: vector}))
        yield edited(f"no {key}", dumped({k: v for k, v in doc.items() if k != key}))
    yield edited("an extra field", dumped({**doc, "extra": 1}))
    raw = lines[number].encode("utf-8")
    at = rng.randrange(len(raw))
    yield edited(f"byte 0xff at {at}", raw[:at] + NOT_UTF8 + raw[at:])
    yield edited("the line nested deep", DEEP)


def _csv_edits(lines, rng):
    """(name, edited lines as bytes) for one seeded data row: each id cell
    and one seeded value cell set to each value or given a byte that is not
    UTF-8, and a cell dropped from or added to that row and the header."""
    number = rng.randrange(1, len(lines))
    cells = lines[number].split(",")

    def edited(name, row, at=number):
        return name, b"".join((row if i == at else line.encode("utf-8")) + b"\n" for i, line in enumerate(lines))

    for column in sorted({0, 1, 2, 3, rng.randrange(3, len(cells))}):
        for value in CSV_VALUES:
            row = cells[:column] + [value] + cells[column + 1:]
            yield edited(f"column {column} = {value:.20}", ",".join(row).encode("utf-8"))
        raw = cells[column].encode("utf-8")
        at = rng.randrange(len(raw) + 1)
        row = [c.encode("utf-8") for c in cells[:column]] + [raw[:at] + NOT_UTF8 + raw[at:]] \
            + [c.encode("utf-8") for c in cells[column + 1:]]
        yield edited(f"column {column} byte 0xff at {at}", b",".join(row))
    for at, name in ((number, "row"), (0, "header")):
        fields = lines[at].split(",")
        yield edited(f"{name} without its last cell", ",".join(fields[:-1]).encode("utf-8"), at)
        yield edited(f"{name} with an extra cell", ",".join(fields + ["0"]).encode("utf-8"), at)


def _finite(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return all(_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _finite_file(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":  # a feature CSV: patch_id, bug_id and label, then the values
        return all(math.isfinite(float(cell)) for row in text.splitlines()[1:] for cell in row.split(",")[3:])
    return _finite([json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else json.loads(text))


# file -> (its edits, [(the output's name, the command that reads an edited copy and writes it), ...])
CASES = {
    "corpus.jsonl": (_jsonl_edits, [("out.jsonl", lambda saved, edited, out: ("ingest", "--input", edited,
                                                                              "--out", out))]),
    "embeddings.jsonl": (_jsonl_edits, [
        ("out.jsonl", lambda saved, edited, out: ("import-embeddings", "--embeddings", edited, "--out", out)),
        ("out.csv", lambda saved, edited, out: ("features", "--corpus", saved["corpus.jsonl"], "--embeddings",
                                                edited, "--set", "learned", "--out", out)),
        ("out.json", lambda saved, edited, out: ("stats", "--corpus", saved["corpus.jsonl"], "--embeddings",
                                                 edited, "--label-filter", "all", "--out", out)),
    ]),
    "features.csv": (_csv_edits, [("out.json", lambda saved, edited, out: ("train", "--features", edited,
                                                                           "--learner", "nb", "--out", out))]),
    "predictions.csv": (_csv_edits, [("out.json", lambda saved, edited, out: ("compare", "--a",
                                                                              saved["predictions.csv"], "--b",
                                                                              edited, "--out", out))]),
}


@pytest.mark.parametrize("name", CASES)
def test_one_line_or_cell_edits_of_a_row_file_end_in_an_error_or_a_finite_answer(saved, name, tmp_path, capsys):
    edits, commands = CASES[name]
    lines = saved[name].read_text(encoding="utf-8").splitlines()
    edited_path = tmp_path / name
    failures, count = [], 0
    for what, data in edits(lines, random.Random(name)):
        count += 1
        edited_path.write_bytes(data)
        for out_name, argv in commands:
            out = tmp_path / out_name
            out.unlink(missing_ok=True)
            argv = argv(saved, edited_path, out)
            try:
                status = run(*argv)
                err = capsys.readouterr().err
                if status == 1 and err.startswith("error[") and "Traceback" not in err:
                    continue
                if status != 0 or not _finite_file(out):
                    failures.append(f"{what} ({argv[0]}): exit {status}: {err.strip() or 'non-finite outputs'}")
            except Exception as exc:  # a crash, or a RuntimeWarning raised as an error
                failures.append(f"{what} ({argv[0]}): {type(exc).__name__}: {str(exc)[:200]}")
    assert count > 40
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command", ["features", "fragments"])
def test_a_corpus_edit_is_refused_by_file_and_line_or_gives_one_row_per_record(command, saved, tmp_path, capsys):
    lines = saved["corpus.jsonl"].read_text(encoding="utf-8").splitlines()
    line = random.Random("corpus.jsonl").randrange(len(lines)) + 1  # the line _jsonl_edits edits
    edited, out = tmp_path / "corpus.jsonl", tmp_path / ("out.csv" if command == "features" else "out.jsonl")
    argv = (command, "--corpus", edited, *(["--set", "engineered"] if command == "features" else []), "--out", out)
    failures, refused = [], 0
    for what, data in _jsonl_edits(lines, random.Random("corpus.jsonl")):
        edited.write_bytes(data)
        out.unlink(missing_ok=True)
        try:
            status = run(*argv)
            err = capsys.readouterr().err
        except Exception as exc:  # a crash, or a RuntimeWarning raised as an error
            failures.append(f"{what}: {type(exc).__name__}: {str(exc)[:200]}")
            continue
        if status == 1 and err.startswith(f"error[corpus]: {edited} line {line}") and "Traceback" not in err:
            refused += 1
            assert not out.exists(), what
        elif status != 0 or len(out.read_text(encoding="utf-8").splitlines()) != len(lines) + (command == "features"):
            failures.append(f"{what}: exit {status}: {err.strip()[:200] or 'not one row per record'}")
    assert refused > 20
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name, fault", [
    ("corpus.jsonl", "byte"), ("corpus.jsonl", "deep"), ("corpus.jsonl", "surrogate"),
    ("embeddings.jsonl", "byte"), ("embeddings.jsonl", "deep"), ("embeddings.jsonl", "surrogate"),
    ("features.csv", "byte"), ("features.csv", "oversized"), ("predictions.csv", "byte"),
    ("predictions.csv", "oversized"),
])
def test_a_line_not_utf8_nested_too_deep_or_oversized_is_named_by_file_and_line(saved, name, fault, tmp_path,
                                                                                  capsys):
    """A lone surrogate escape (\\ud800) in a JSON string is not UTF-8 text
    either: a CSV written from it could not be encoded."""
    lines = saved[name].read_bytes().splitlines(keepends=True)
    line, edited, out = 3, tmp_path / name, tmp_path / "out"
    bad = {"byte": lines[line - 1][:5] + NOT_UTF8 + lines[line - 1][5:], "deep": DEEP.encode() + b"\n",
           "oversized": OVERSIZED.encode() + lines[line - 1],
           "surrogate": lines[line - 1].replace(b'"patch_id": "', b'"patch_id": "\\ud800')}[fault]
    assert bad != lines[line - 1]
    edited.write_bytes(b"".join(lines[:line - 1] + [bad] + lines[line:]))
    if name == "corpus.jsonl":
        assert run("ingest", "--input", edited, "--out", out, "--report", tmp_path / "report.json") == 0
        rejected = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["report"]["rejected"]
        assert [r["line"] for r in rejected] == [line]
    else:
        category = {"embeddings.jsonl": "embed", "features.csv": "features", "predictions.csv": "eval"}[name]
        _edits, [(_name, argv), *_others] = CASES[name]  # the first command that reads the file
        assert run(*argv(saved, edited, out)) == 1
        assert capsys.readouterr().err.startswith(f"error[{category}]: {edited} line {line}: ")


def test_crlf_row_files_read_as_their_lf_copies(saved, tmp_path):
    for name, read in (("corpus.jsonl", lambda p: [r.to_json_dict() for r in corpus.ingest(p)[0].records]),
                       ("features.csv", lambda p: [(r.patch_id, r.bug_id, r.label, r.features.tolist())
                                                   for r in featureio.read_features(p)[1]])):
        crlf = tmp_path / name
        crlf.write_bytes(saved[name].read_bytes().replace(b"\n", b"\r\n"))
        assert read(crlf) == read(saved[name])
