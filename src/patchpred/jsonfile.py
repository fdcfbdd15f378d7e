"""The one reader and writer of JSON files. Settings, stats reports and
learner and embedder model files are read by read_object, and both kinds of
model file are checked by model_kind; every JSON (not JSONL) artifact is
written by write."""

import json


def read_object(path, error, what: str) -> dict:
    """The JSON object in `path`, or `error` naming the path: a file that is
    not UTF-8 JSON, or whose JSON is not an object, is not a `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
            raise error(f"{path}: not a valid {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: not a {what}: it holds no JSON object")
    return doc


def model_kind(doc: dict, path, error, kinds, version: int) -> str:
    """The kind of the saved model `doc`, or `error` unless it is a string
    among `kinds` and format_version is the integer `version` (true is not 1)."""
    kind, found = doc.get("kind"), doc.get("format_version")
    if not (isinstance(kind, str) and kind in kinds):
        raise error(f"{path}: unknown model kind {kind!r}; known: {', '.join(sorted(kinds))}")
    if type(found) is not int or found != version:
        raise error(f"{path}: unsupported model format version {found!r}")
    return kind


def write(path, doc: dict, indent: int | None = None) -> None:
    """Save `doc` as JSON with sorted keys: compact, as model files are, or
    indented and ending in a newline, as reports are."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=indent)
        fh.write("" if indent is None else "\n")
