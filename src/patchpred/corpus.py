"""Labeled patch corpora: JSONL ingest, validation, dedup, bug-group splits."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from . import diffparse, fileio
from .errors import CorpusError, DiffParseError

JSONL_FIELDS = ("patch_id", "bug_id", "project", "tool", "label", "diff_text")


class Label(str, Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class PatchRecord:
    patch_id: str
    bug_id: str
    project: str
    tool: str
    label: Label
    diff_text: str

    def to_json_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in JSONL_FIELDS}, "label": self.label.value}


@dataclass
class Corpus:
    records: list[PatchRecord] = field(default_factory=list)
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def bug_ids(self) -> list[str]:
        """Distinct bug ids in first-seen order."""
        return list(dict.fromkeys(rec.bug_id for rec in self.records))

    def by_patch_id(self) -> dict[str, PatchRecord]:
        return {rec.patch_id: rec for rec in self.records}


@dataclass
class IngestReport:
    ingested: int
    duplicates_dropped: int
    rejected: list[tuple[int, str]]  # (line number, reason)

    def to_json_dict(self) -> dict:
        return {
            "ingested": self.ingested,
            "duplicates_dropped": self.duplicates_dropped,
            "rejected": [{"line": n, "reason": r} for n, r in self.rejected],
        }


def normalize_diff(diff_text: str) -> str:
    """Dedup key normalization: unify line endings, strip trailing whitespace."""
    lines = diff_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines)


def _parse_record(obj, allow_unlabeled: bool) -> PatchRecord:
    if not isinstance(obj, dict):  # a ValueError is a line that is not UTF-8 JSON
        raise obj if isinstance(obj, ValueError) else ValueError("line is not a JSON object")
    for name in JSONL_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
        if not isinstance(obj[name], str):
            raise ValueError(f"field {name!r} must be a string")
        obj[name].encode("utf-8")  # a lone surrogate escape such as \ud800 is not UTF-8 text
    try:
        label = Label(obj["label"])
    except ValueError:
        raise ValueError(f"label must be one of correct/incorrect/unlabeled, got {obj['label']!r}")
    if label is Label.UNLABELED and not allow_unlabeled:
        raise ValueError("unlabeled record rejected (training corpus)")
    if not obj["patch_id"]:
        raise ValueError("empty patch_id")
    if not obj["bug_id"]:
        raise ValueError("empty bug_id")
    try:
        diffparse.parse_diff(obj["diff_text"])  # the one diff rule: what fragments and features can read
    except DiffParseError as exc:
        raise ValueError(f"diff_text: {exc}") from None
    return PatchRecord(**{name: obj[name] for name in JSONL_FIELDS if name != "label"}, label=label)


def _scan(path, allow_unlabeled: bool, refuse) -> list[PatchRecord]:
    """The records of the JSONL corpus at `path` that ingest keeps, in file
    order. Each other line goes to `refuse(line, its patch_id field or None,
    reason, duplicate)`: a (bug_id, normalized diff) duplicate is dropped,
    any other line rejected."""
    records: list[PatchRecord] = []
    first: dict[tuple[str, str], str] = {}  # (bug_id, normalized diff) -> the patch_id that has it
    seen_patch_ids: set[str] = set()
    for lineno, obj in fileio.read_lines(path):
        try:
            rec = _parse_record(obj, allow_unlabeled)
        except ValueError as exc:
            refuse(lineno, obj.get("patch_id") if isinstance(obj, dict) else None, str(exc), False)
            continue
        key = (rec.bug_id, normalize_diff(rec.diff_text))
        if key in first:
            refuse(lineno, rec.patch_id, f"the same bug_id and diff as patch {first[key]!r}", True)
        elif rec.patch_id in seen_patch_ids:
            refuse(lineno, rec.patch_id, f"duplicate patch_id {rec.patch_id!r} with different content", False)
        else:
            first[key] = rec.patch_id
            seen_patch_ids.add(rec.patch_id)
            records.append(rec)
    return records


def ingest(path, allow_unlabeled: bool = False) -> tuple[Corpus, IngestReport]:
    """Read a JSONL corpus, dropping (bug_id, normalized diff) duplicates.

    Returns the deduplicated corpus plus a report of what was kept, dropped,
    and rejected. Raises CorpusError when no valid record survives.
    """
    rejected: list[tuple[int, str]] = []
    dropped: list[tuple[int, str]] = []

    def refuse(line, _patch_id, reason, duplicate):
        (dropped if duplicate else rejected).append((line, reason))

    records = _scan(path, allow_unlabeled, refuse)
    if not records:
        detail = "; ".join(f"line {n}: {r}" for n, r in rejected[:5]) or "file is empty"
        raise CorpusError(f"no valid records in {path} ({detail})")
    return Corpus(records=records, provenance=str(path)), IngestReport(len(records), len(dropped), rejected)


def read(path, allow_unlabeled: bool = False) -> Corpus:
    """The JSONL corpus at `path` as every command but ingest reads it, whole:
    the first line that ingest would reject or drop is a CorpusError naming
    the file, the line and, where the line has one, the patch."""
    def refuse(line, patch_id, reason, duplicate):
        patch = f" (patch {patch_id!r})" if isinstance(patch_id, str) and patch_id else ""
        raise CorpusError(f"{path} line {line}{patch}: {reason}; ingest would {'drop' if duplicate else 'reject'} it")

    records = _scan(path, allow_unlabeled, refuse)
    if not records:
        raise CorpusError(f"no valid records in {path} (file is empty)")
    return Corpus(records=records, provenance=str(path))


def persist(corpus: Corpus, path) -> None:
    fileio.write_lines(path, (rec.to_json_dict() for rec in corpus.records))


def split_by_bug(bug_ids, k: int, seed: int) -> list[list[str]]:
    """Partition the distinct ids of `bug_ids` into k disjoint groups by
    seeded shuffle. All patches of a bug travel together because grouping
    happens at the bug level. Group sizes differ by at most one.
    """
    bugs = sorted(set(bug_ids))
    if k < 1:
        raise CorpusError(f"k must be positive, got {k}")
    if len(bugs) < k:
        raise CorpusError(f"cannot split {len(bugs)} distinct bugs into {k} groups")
    random.Random(seed).shuffle(bugs)
    base, extra = divmod(len(bugs), k)
    groups: list[list[str]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        groups.append(sorted(bugs[start : start + size]))
        start += size
    return groups
