"""Hand-designed static patch features: repair-pattern flags plus lexical
code-description counts over the buggy and patched fragments.

Every feature has a registry entry carrying the exact lexical rule used to
compute it, so reports and explanations can cite definitions. Pattern flags
that cannot be decided lexically stay 0.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import PatchRecord
from .diffparse import FragmentPair, HunkSet, LineTag, extract_fragments, parse_diff, tokenize

REGISTRY_VERSION = "1"

KEYWORDS = ("if", "else", "for", "while", "return", "throw", "try", "catch",
            "break", "continue", "new", "null")

# Identifiers that look like calls but are control-flow keywords.
_CALL_EXCLUDE = frozenset(KEYWORDS) | {"switch", "synchronized", "assert", "do", "case"}

_OPS_RE = re.compile(r"==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--|[+\-*/%<>=!]")
_OP_CLASS = {
    "==": "relational", "!=": "relational", "<=": "relational", ">=": "relational",
    "<": "relational", ">": "relational",
    "&&": "logical", "||": "logical", "!": "logical",
    "=": "assignment", "+=": "assignment", "-=": "assignment",
    "*=": "assignment", "/=": "assignment", "%=": "assignment",
    "+": "arithmetic", "-": "arithmetic", "*": "arithmetic",
    "/": "arithmetic", "%": "arithmetic", "++": "arithmetic", "--": "arithmetic",
}
_STRING_RE = re.compile(r"\"[^\"]*\"|'[^']*'")
_NUMBER_RE = re.compile(r"\b\d+(?:\.\d+)?\b")
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_WHITESPACE_RE = re.compile(r"\s+")

_OP_CLASSES = ("arithmetic", "relational", "logical", "assignment")

_COUNTER_NAMES = tuple(
    [f"kw_{k}" for k in KEYWORDS]
    + [f"op_{c}" for c in _OP_CLASSES]
    + ["lit_numeric", "lit_string", "lit_boolean", "calls"]
)

_FLAG_NAMES = (
    "singleLine", "codeMove", "wrapsIf", "wrapsTryCatch", "unwrapsIf",
    "unwrapsTryCatch", "conditionalBlockAdd", "conditionalBlockRemove",
    "constantChange", "expressionFix", "onlyAddition", "onlyRemoval",
)

_FLAG_RULES = {
    "singleLine": "exactly one changed line (removed + added) across all hunks",
    "codeMove": "some removed line, with all whitespace stripped, reappears verbatim among the added lines",
    "wrapsIf": "an added line contains an 'if' token immediately followed by '(' and codeMove holds",
    "wrapsTryCatch": "added lines contain 'try' and 'catch' tokens and codeMove holds",
    "unwrapsIf": "a removed line contains an 'if' token immediately followed by '(' and codeMove holds",
    "unwrapsTryCatch": "removed lines contain 'try' and 'catch' tokens and codeMove holds",
    "conditionalBlockAdd": "more added than removed lines open a brace-delimited block with if/else/for/while",
    "conditionalBlockRemove": "more removed than added lines open a brace-delimited block with if/else/for/while",
    "constantChange": "equal numbers of removed and added lines that match pairwise once numeric and string literals are masked, yet differ before masking",
    "expressionFix": "equal numbers of removed and added lines that match pairwise once outermost parenthesized groups are masked, yet differ before masking",
    "onlyAddition": "no removed lines and at least one added line",
    "onlyRemoval": "no added lines and at least one removed line",
}


@dataclass(frozen=True)
class EngineeredVector:
    patch_id: str
    values: np.ndarray
    names: tuple[str, ...]


_FEATURE_NAMES = (*_FLAG_NAMES, *(f"{side}_{c}" for side in ("buggy", "patched", "delta")
                                   for c in _COUNTER_NAMES))


def feature_names() -> list[str]:
    return list(_FEATURE_NAMES)


def registry() -> list[dict]:
    """Export the feature registry: name, kind, and the rule text."""
    entries = [{"name": n, "kind": "flag", "rule": _FLAG_RULES[n]} for n in _FLAG_NAMES]
    for side in ("buggy", "patched"):
        for c in _COUNTER_NAMES:
            entries.append({
                "name": f"{side}_{c}",
                "kind": "count",
                "rule": f"occurrences of {c.replace('_', ' ')} in the {side} fragment",
            })
    for c in _COUNTER_NAMES:
        entries.append({
            "name": f"delta_{c}",
            "kind": "delta",
            "rule": f"patched count minus buggy count for {c.replace('_', ' ')}",
        })
    return entries


def _mask_literals(text: str) -> str:
    return _NUMBER_RE.sub("<LIT>", _STRING_RE.sub("<LIT>", text))


def _mask_parens(text: str) -> str:
    """Replace the contents of outermost  (...)  groups with a placeholder."""
    out = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth == 1:
                out.append("(<P>")
            continue
        if ch == ")":
            depth = max(depth - 1, 0)
            if depth == 0:
                out.append(")")
            continue
        if depth == 0:
            out.append(ch)
    return "".join(out)


def _squash(text: str) -> str:
    return " ".join(text.split())


def _has_if_paren(toks: list[str]) -> bool:
    return any(a == "if" and b == "(" for a, b in zip(toks, toks[1:]))


def _opens_conditional_block(toks: list[str]) -> bool:
    return "{" in toks and any(t in ("if", "else", "for", "while") for t in toks)


def _pairwise_differ_only_under(removed: list[str], added: list[str], mask) -> bool:
    if not removed or len(removed) != len(added):
        return False
    raw_equal = all(_squash(r) == _squash(a) for r, a in zip(removed, added))
    if raw_equal:
        return False
    return all(_squash(mask(r)) == _squash(mask(a)) for r, a in zip(removed, added))


def extract_patterns(hunks: HunkSet) -> dict[str, int]:
    removed = [c for h in hunks.hunks for t, c in h.lines if t is LineTag.REMOVED]
    added = [c for h in hunks.hunks for t, c in h.lines if t is LineTag.ADDED]
    changed = len(removed) + len(added)

    stripped_removed = {_WHITESPACE_RE.sub("", r) for r in removed} - {""}
    stripped_added = {_WHITESPACE_RE.sub("", a) for a in added} - {""}
    code_move = int(bool(stripped_removed & stripped_added))

    # Each line once; no token spans a line, so a side's tokens are its
    # lines' tokens.
    added_lines = [tokenize(line) for line in added]
    removed_lines = [tokenize(line) for line in removed]
    added_tokens = {t for toks in added_lines for t in toks}
    removed_tokens = {t for toks in removed_lines for t in toks}

    openers_added = sum(map(_opens_conditional_block, added_lines))
    openers_removed = sum(map(_opens_conditional_block, removed_lines))

    return {
        "singleLine": int(changed == 1),
        "codeMove": code_move,
        "wrapsIf": int(code_move and any(map(_has_if_paren, added_lines))),
        "wrapsTryCatch": int(code_move and "try" in added_tokens and "catch" in added_tokens),
        "unwrapsIf": int(code_move and any(map(_has_if_paren, removed_lines))),
        "unwrapsTryCatch": int(code_move and "try" in removed_tokens and "catch" in removed_tokens),
        "conditionalBlockAdd": int(openers_added > openers_removed),
        "conditionalBlockRemove": int(openers_removed > openers_added),
        "constantChange": int(_pairwise_differ_only_under(removed, added, _mask_literals)),
        "expressionFix": int(_pairwise_differ_only_under(removed, added, _mask_parens)),
        "onlyAddition": int(not removed and bool(added)),
        "onlyRemoval": int(not added and bool(removed)),
    }


def _count_side(text: str, tokens) -> list[float]:
    """The counters of one fragment, given its text and tokenize(text), in
    _COUNTER_NAMES order."""
    tally = Counter(tokens).get
    ops = Counter(map(_OP_CLASS.__getitem__, _OPS_RE.findall(text))).get
    return [*(float(tally(k, 0)) for k in KEYWORDS),
            *(float(ops(c, 0)) for c in _OP_CLASSES),
            float(len(_NUMBER_RE.findall(_STRING_RE.sub("", text)))),
            float(len(_STRING_RE.findall(text))),
            float(tally("true", 0) + tally("false", 0)),
            float(sum(name not in _CALL_EXCLUDE for name in _CALL_RE.findall(text)))]


def _side_counts(fragments: FragmentPair) -> tuple[list[float], list[float]]:
    return (_count_side(fragments.buggy_text, fragments.buggy_tokens),
            _count_side(fragments.patched_text, fragments.patched_tokens))


def extract_code_description(fragments: FragmentPair) -> dict[str, float]:
    out: dict[str, float] = {}
    for c, b, p in zip(_COUNTER_NAMES, *_side_counts(fragments)):
        out[f"buggy_{c}"] = b
        out[f"patched_{c}"] = p
        out[f"delta_{c}"] = p - b
    return out


def extract_all(record: PatchRecord) -> EngineeredVector:
    """Full engineered vector for one patch: [flags | counts | deltas]."""
    hunks = parse_diff(record.diff_text)
    flags = extract_patterns(hunks)
    buggy, patched = _side_counts(extract_fragments(hunks))
    values = np.array([*(float(flags[n]) for n in _FLAG_NAMES), *buggy, *patched,
                       *(p - b for b, p in zip(buggy, patched))])
    return EngineeredVector(patch_id=record.patch_id, values=values, names=_FEATURE_NAMES)
