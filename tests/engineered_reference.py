"""The engineered extraction that the single-pass one replaced, kept as
written: every line, side and keyword scanned on its own. Tests compare
the package's vectors with these bit for bit."""

import re

import numpy as np

from patchpred.diffparse import LineTag, extract_fragments, parse_diff, tokenize
from patchpred.engineered import (_CALL_EXCLUDE, _CALL_RE, _COUNTER_NAMES, _FLAG_NAMES, _NUMBER_RE,
                                  _OP_CLASS, _OPS_RE, _STRING_RE, KEYWORDS, _mask_literals,
                                  _mask_parens, _pairwise_differ_only_under)


def feature_names() -> list[str]:
    names = list(_FLAG_NAMES)
    names += [f"buggy_{c}" for c in _COUNTER_NAMES]
    names += [f"patched_{c}" for c in _COUNTER_NAMES]
    names += [f"delta_{c}" for c in _COUNTER_NAMES]
    return names


def _has_if_paren(line: str) -> bool:
    toks = tokenize(line)
    return any(a == "if" and b == "(" for a, b in zip(toks, toks[1:]))


def _opens_conditional_block(line: str) -> bool:
    toks = tokenize(line)
    return "{" in toks and any(t in ("if", "else", "for", "while") for t in toks)


def extract_patterns(hunks) -> dict[str, int]:
    removed = [c for h in hunks.hunks for t, c in h.lines if t is LineTag.REMOVED]
    added = [c for h in hunks.hunks for t, c in h.lines if t is LineTag.ADDED]
    changed = len(removed) + len(added)

    stripped_removed = {re.sub(r"\s+", "", r) for r in removed if re.sub(r"\s+", "", r)}
    stripped_added = {re.sub(r"\s+", "", a) for a in added if re.sub(r"\s+", "", a)}
    code_move = int(bool(stripped_removed & stripped_added))

    added_text = " ".join(added)
    removed_text = " ".join(removed)
    added_tokens = tokenize(added_text)
    removed_tokens = tokenize(removed_text)

    openers_added = sum(1 for line in added if _opens_conditional_block(line))
    openers_removed = sum(1 for line in removed if _opens_conditional_block(line))

    return {
        "singleLine": int(changed == 1),
        "codeMove": code_move,
        "wrapsIf": int(code_move and any(_has_if_paren(line) for line in added)),
        "wrapsTryCatch": int(code_move and "try" in added_tokens and "catch" in added_tokens),
        "unwrapsIf": int(code_move and any(_has_if_paren(line) for line in removed)),
        "unwrapsTryCatch": int(code_move and "try" in removed_tokens and "catch" in removed_tokens),
        "conditionalBlockAdd": int(openers_added > openers_removed),
        "conditionalBlockRemove": int(openers_removed > openers_added),
        "constantChange": int(_pairwise_differ_only_under(removed, added, _mask_literals)),
        "expressionFix": int(_pairwise_differ_only_under(removed, added, _mask_parens)),
        "onlyAddition": int(not removed and bool(added)),
        "onlyRemoval": int(not added and bool(removed)),
    }


def _count_side(text: str) -> dict[str, float]:
    tokens = tokenize(text)
    counts = {f"kw_{k}": float(tokens.count(k)) for k in KEYWORDS}
    op_counts = {"arithmetic": 0, "relational": 0, "logical": 0, "assignment": 0}
    for m in _OPS_RE.finditer(text):
        op_counts[_OP_CLASS[m.group(0)]] += 1
    for cls, v in op_counts.items():
        counts[f"op_{cls}"] = float(v)
    counts["lit_numeric"] = float(len(_NUMBER_RE.findall(_STRING_RE.sub("", text))))
    counts["lit_string"] = float(len(_STRING_RE.findall(text)))
    counts["lit_boolean"] = float(sum(1 for t in tokens if t in ("true", "false")))
    counts["calls"] = float(sum(1 for m in _CALL_RE.finditer(text) if m.group(1) not in _CALL_EXCLUDE))
    return counts


def extract_code_description(fragments) -> dict[str, float]:
    buggy = _count_side(fragments.buggy_text)
    patched = _count_side(fragments.patched_text)
    out: dict[str, float] = {}
    for c in _COUNTER_NAMES:
        out[f"buggy_{c}"] = buggy[c]
        out[f"patched_{c}"] = patched[c]
        out[f"delta_{c}"] = patched[c] - buggy[c]
    return out


def extract_all_values(diff_text: str) -> np.ndarray:
    """The engineered vector of a patch with this diff: [flags | counts | deltas]."""
    hunks = parse_diff(diff_text)
    fragments = extract_fragments(hunks)
    features = dict(extract_patterns(hunks))
    features.update(extract_code_description(fragments))
    return np.array([float(features[n]) for n in feature_names()])
