"""Unified-diff parsing, fragment extraction, and lexical tokenization.

The buggy fragment of a patch is the removed lines plus the context lines;
the patched fragment is the added lines plus the same context lines. Both
are flattened to a single line for downstream embedding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import DiffParseError


class LineTag(Enum):
    CONTEXT = " "
    REMOVED = "-"
    ADDED = "+"


@dataclass(frozen=True)
class Hunk:
    header: str
    lines: tuple[tuple[LineTag, str], ...]  # content has the marker char stripped


@dataclass(frozen=True)
class HunkSet:
    hunks: tuple[Hunk, ...]


@dataclass(frozen=True)
class FragmentPair:
    buggy_text: str
    patched_text: str
    buggy_tokens: tuple[str, ...]
    patched_tokens: tuple[str, ...]


_TOKEN_RE = re.compile(r"\d+\.\d+|\d+|[A-Za-z_]\w*|\S")


def tokenize(text: str) -> list[str]:
    """Split into identifiers/keywords/numbers plus single-char punctuation."""
    return _TOKEN_RE.findall(text)


def parse_diff(diff_text: str) -> HunkSet:
    """Classify every hunk body line as context/removed/added.

    File headers and git preamble are excluded. A second file section after
    hunks have started, a `diff ` line or a `--- ` line followed by a `+++ `
    line and a hunk header, is rejected: multi-file diffs must be pre-split.
    """
    if not diff_text or not diff_text.strip():
        raise DiffParseError("empty diff text")
    hunks: list[Hunk] = []
    header: str | None = None
    body: list[tuple[LineTag, str]] = []
    in_body = False

    def flush():
        nonlocal header, body
        if header is not None:
            hunks.append(Hunk(header=header, lines=tuple(body)))
        header, body = None, []

    # Split on real newlines only: str.splitlines would also split on form
    # feeds and unicode separators that can occur inside code lines.
    lines = diff_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("@@"):
            flush()
            header = line
            in_body = True
            continue
        if not in_body:
            # Preamble before the first hunk is skipped leniently.
            continue
        if line.startswith("\\"):
            continue
        if line == "":
            body.append((LineTag.CONTEXT, ""))
            continue
        # The next file's section: a `diff ` line, or its `--- ` and `+++ ` headers before a hunk.
        if line.startswith("diff ") or (line.startswith("--- ") and lineno + 1 < len(lines)
                                        and lines[lineno].startswith("+++ ") and lines[lineno + 1].startswith("@@")):
            raise DiffParseError(f"line {lineno}: multi-file diff not supported; split per file upstream")
        first = line[0]
        if first == " ":
            body.append((LineTag.CONTEXT, line[1:]))
        elif first == "-":
            body.append((LineTag.REMOVED, line[1:]))
        elif first == "+":
            body.append((LineTag.ADDED, line[1:]))
        else:
            raise DiffParseError(f"line {lineno}: unknown diff line prefix {first!r}: {line!r}")
    flush()
    if not hunks:
        raise DiffParseError("no hunk header found (no line starting with '@@')")
    return HunkSet(hunks=tuple(hunks))


def _flatten(lines: list[str]) -> str:
    # One marker char is already stripped; collapse all remaining whitespace
    # runs so multi-line fragments become a single line.
    return " ".join(" ".join(lines).split())


def extract_fragments(hunks: HunkSet) -> FragmentPair:
    """Build the buggy (removed+context) and patched (added+context) fragments.

    Fragments from multiple hunks are concatenated in diff order, one space
    between lines. A pure-insertion patch yields a context-only buggy side.
    """
    buggy_lines: list[str] = []
    patched_lines: list[str] = []
    for hunk in hunks.hunks:
        for tag, content in hunk.lines:
            if tag is LineTag.CONTEXT:
                buggy_lines.append(content)
                patched_lines.append(content)
            elif tag is LineTag.REMOVED:
                buggy_lines.append(content)
            else:
                patched_lines.append(content)
    buggy_text = _flatten(buggy_lines)
    patched_text = _flatten(patched_lines)
    return FragmentPair(
        buggy_text=buggy_text,
        patched_text=patched_text,
        buggy_tokens=tuple(tokenize(buggy_text)),
        patched_tokens=tuple(tokenize(patched_text)),
    )


def fragments_for_diff(diff_text: str) -> FragmentPair:
    return extract_fragments(parse_diff(diff_text))
