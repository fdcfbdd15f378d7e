import json

import pytest

from patchpred import corpus, synth
from patchpred.errors import CorpusError

DIFF = "@@ -1,2 +1,2 @@\n ctx\n-old line\n+new line\n"


def record(patch_id="p1", bug_id="Chart-1", label="correct", diff=DIFF):
    return {"patch_id": patch_id, "bug_id": bug_id, "project": "chart",
            "tool": "toolA", "label": label, "diff_text": diff}


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_ingest_drops_bug_diff_duplicates(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        record("p1", "Chart-1"),
        record("p2", "Chart-1"),  # same bug, same diff -> duplicate
        record("p3", "Chart-2"),
    ])
    cor, report = corpus.ingest(path)
    assert len(cor) == 2
    assert report.ingested == 2
    assert report.duplicates_dropped == 1
    assert report.rejected == []


def test_ingest_normalizes_whitespace_for_dedup(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        record("p1", "Chart-1", diff="@@ -1 +1 @@\n-a\n+b"),
        record("p2", "Chart-1", diff="@@ -1 +1 @@\r\n-a  \r\n+b"),
    ])
    cor, report = corpus.ingest(path)
    assert len(cor) == 1
    assert report.duplicates_dropped == 1


def test_ingest_missing_diff_text_errors_with_line(tmp_path):
    path = tmp_path / "c.jsonl"
    row = record()
    del row["diff_text"]
    write_jsonl(path, [row])
    with pytest.raises(CorpusError, match="line 1"):
        corpus.ingest(path)


def test_ingest_rejects_rows_without_hunk_header(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("p1", diff="just some text"), record("p2", "Chart-9")])
    cor, report = corpus.ingest(path)
    assert len(cor) == 1
    assert report.rejected[0][0] == 1
    assert "@@" in report.rejected[0][1]


# DIFF followed by a second file's section, which parse_diff refuses.
TWO_FILES = DIFF + "diff --git a/G.java b/G.java\n--- a/G.java\n+++ b/G.java\n@@ -1 +1 @@\n-p\n+q\n"


def test_ingest_rejects_a_diff_that_parse_diff_refuses(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("p1", diff=TWO_FILES), record("p2", "Chart-2")])
    cor, report = corpus.ingest(path)
    assert [rec.patch_id for rec in cor.records] == ["p2"]
    assert report.rejected == [(1, "diff_text: line 5: multi-file diff not supported; split per file upstream")]


@pytest.mark.parametrize("rows, message", [
    ([record("p1", diff=TWO_FILES), record("p2", "Chart-2")],
     "line 1 (patch 'p1'): diff_text: line 5: multi-file diff not supported; split per file upstream; "
     "ingest would reject it"),
    ([record("p1"), record("p2", "")], "line 2 (patch 'p2'): empty bug_id; ingest would reject it"),
    ([record("p1"), record("p2")], "line 2 (patch 'p2'): the same bug_id and diff as patch 'p1'; "
                                   "ingest would drop it"),
    ([record("p1"), record("p1", "Chart-2", diff="@@ -1 +1 @@\n-x\n+y")],
     "line 2 (patch 'p1'): duplicate patch_id 'p1' with different content; ingest would reject it"),
    ([record("p1"), record("p2", "Chart-2", label="unlabeled")],
     "line 2 (patch 'p2'): unlabeled record rejected (training corpus); ingest would reject it"),
    ([record("p1"), {**record("p2", "Chart-2"), "patch_id": 7}],
     "line 2: field 'patch_id' must be a string; ingest would reject it"),
    ([], "no valid records in PATH (file is empty)"),
], ids=["two-files", "empty-bug-id", "duplicate", "duplicate-patch-id", "unlabeled", "patch-id-a-number", "empty"])
def test_read_refuses_the_first_line_that_ingest_would_reject_or_drop(rows, message, tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(CorpusError) as info:
        corpus.read(path)
    assert str(info.value) == (message.replace("PATH", str(path)) if "PATH" in message else f"{path} {message}")


def test_read_is_ingest_on_a_clean_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("p1"), record("p2", "Chart-2", label="unlabeled")])
    assert corpus.read(path, allow_unlabeled=True).records == corpus.ingest(path, allow_unlabeled=True)[0].records
    cor = synth.generate_corpus(5, 3, "xor", seed=9)
    corpus.persist(cor, path)
    assert corpus.read(path).records == cor.records


def test_training_corpus_rejects_unlabeled(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("p1", label="unlabeled"), record("p2", "Chart-2")])
    cor, report = corpus.ingest(path)
    assert len(cor) == 1
    assert "unlabeled" in report.rejected[0][1]
    cor2, report2 = corpus.ingest(path, allow_unlabeled=True)
    assert len(cor2) == 2


def test_duplicate_patch_id_with_different_content_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        record("p1", "Chart-1"),
        record("p1", "Chart-2", diff="@@ -1 +1 @@\n-x\n+y"),
    ])
    cor, report = corpus.ingest(path)
    assert len(cor) == 1
    assert "patch_id" in report.rejected[0][1]


def test_zero_valid_records_is_corpus_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CorpusError):
        corpus.ingest(path)


def test_synthetic_corpus_ingests_clean(tmp_path):
    cor = synth.generate_corpus(8, 5, "learned", seed=4)
    path = tmp_path / "synth.jsonl"
    corpus.persist(cor, path)
    reloaded, report = corpus.ingest(path)
    assert report.ingested == 40
    assert report.duplicates_dropped == 0
    assert report.rejected == []


def test_ingest_persist_round_trip(tmp_path):
    cor = synth.generate_corpus(5, 3, "xor", seed=9)
    path = tmp_path / "a.jsonl"
    corpus.persist(cor, path)
    first, _ = corpus.ingest(path)
    path2 = tmp_path / "b.jsonl"
    corpus.persist(first, path2)
    second, _ = corpus.ingest(path2)
    assert first.records == second.records


def test_split_ten_bugs_into_ten_singletons():
    bugs = [f"bug-{i}" for i in range(10)]
    plan = corpus.split_by_bug(bugs, k=10, seed=0)
    assert sorted(len(g) for g in plan) == [1] * 10
    assert sorted(b for g in plan for b in g) == sorted(bugs)


def test_split_25_bugs_into_10_groups_is_a_partition():
    bugs = [f"bug-{i}" for i in range(25)]
    plan = corpus.split_by_bug(bugs, k=10, seed=7)
    sizes = sorted(len(g) for g in plan)
    assert set(sizes) <= {2, 3}
    flat = [b for g in plan for b in g]
    assert sorted(flat) == sorted(bugs)
    assert len(set(flat)) == len(flat)


def test_split_fewer_bugs_than_groups_errors():
    with pytest.raises(CorpusError):
        corpus.split_by_bug([f"bug-{i}" for i in range(5)], k=10, seed=0)


def test_split_membership_is_exactly_one_across_seeds():
    for seed in range(20):
        n_bugs = 3 + seed
        k = min(1 + seed % 7, n_bugs)
        bugs = [f"bug-{i}" for i in range(n_bugs)]
        plan = corpus.split_by_bug(bugs, k=k, seed=seed)
        counts = {}
        for group in plan:
            for bug in group:
                counts[bug] = counts.get(bug, 0) + 1
        assert counts == {b: 1 for b in bugs}


def test_split_deterministic_for_seed():
    bugs = [f"bug-{i}" for i in range(17)]
    assert corpus.split_by_bug(bugs, 4, seed=3) == corpus.split_by_bug(bugs, 4, seed=3)
    assert corpus.split_by_bug(bugs, 4, seed=3) != corpus.split_by_bug(bugs, 4, seed=4)
