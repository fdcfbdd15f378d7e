"""The one place that opens files. JSON artifacts (settings, stats reports,
model files) go through read_object, model_kind and write; row files, UTF-8
with one record per line and blank lines skipped, through read_lines and
write_lines (corpus, fragments and embeddings JSONL) or read_csv and write_csv
(feature, prediction and other CSVs). The readers stream and name the line."""

import csv
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


def _utf8(line: str) -> str:
    """`line`, read with errors="surrogateescape", or UnicodeDecodeError (a
    ValueError) at its first byte that is not UTF-8."""
    return line if line.isascii() else line.encode("utf-8", "surrogateescape").decode("utf-8")


def read_lines(path):
    """Yield (line number, value) for each line of the JSON-lines file `path`,
    read with universal newlines; the value is a ValueError for a line that
    is not UTF-8 JSON or is nested too deep."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    value = json.loads(_utf8(line))
                except (ValueError, RecursionError) as exc:
                    value = ValueError(exc)
                yield number, value


def read_csv(path, error, columns: tuple):
    """Yield the header of the CSV file `path`, then (line number, fields) for
    each row; `error` naming the path and line for a header (none in an empty
    file) that does not start with `columns`, a row (named by its first
    field) without one field per column, or a line not UTF-8 or not CSV."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(map(_utf8, fh))
        try:
            header = next(reader, [])
            if tuple(header[:len(columns)]) != columns:
                raise error(f"{path} line 1: header must start with {', '.join(columns)}")
            yield header
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise error(f"{path} line {reader.line_num}: patch {fields[0]!r} has {len(fields)} fields, "
                                f"expected {len(header)}")
                yield reader.line_num, fields
        except csv.Error as exc:
            raise error(f"{path} line {reader.line_num}: {exc}") from exc
        except ValueError as exc:  # not UTF-8: the line after the last one read
            raise error(f"{path} line {reader.line_num + 1}: {exc}") from exc


def write_lines(path, values) -> None:
    """Save each of `values` as one line of JSON with sorted keys."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for value in values:
            fh.write(json.dumps(value, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Save `header` and then each of `rows`, all lists of fields, as CSV
    lines ending in "\\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
