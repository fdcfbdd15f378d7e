"""Feature matrices: assembly from a corpus, alignment by patch_id, and
interchange as CSV with patch_id, bug_id, label columns followed by one
column per named feature."""

from __future__ import annotations

import numpy as np

from . import combine, crossing, engineered, fileio
from .corpus import Label
from .errors import FeatureError
from .evaluate import JointRow
from .learn import FeatureRow

ID_COLUMNS = ("patch_id", "bug_id", "label")
_LABELS = {Label.CORRECT: 1, Label.INCORRECT: 0}
_CSV_LABELS = {"": None, "0": 0, "1": 1}


def write_features(path, rows, names) -> None:
    names, rows = list(names), list(rows)
    for row in rows:
        if len(row.features) != len(names):
            raise FeatureError(f"patch {row.patch_id!r}: {len(row.features)} values for {len(names)} names")
    fileio.write_csv(path, list(ID_COLUMNS) + names, (
        [row.patch_id, row.bug_id, "" if row.label is None else int(row.label)]
        + [repr(float(v)) for v in row.features] for row in rows))


def read_features(path) -> tuple[list[str], list[FeatureRow]]:
    records = fileio.read_csv(path, FeatureError, ID_COLUMNS)
    names = next(records)[3:]
    if not names:
        raise FeatureError(f"{path}: no feature columns")
    rows, lines = [], {}  # patch_id: its line
    for line, record in records:
        where = f"{path} line {line}: patch {record[0]!r}"
        if record[0] in lines:
            raise FeatureError(f"{where} is already on line {lines[record[0]]}")
        lines[record[0]] = line
        if record[2] not in _CSV_LABELS:
            raise FeatureError(f"{where} has label {record[2]!r}; expected 0, 1 or empty")
        try:
            if not fileio.number_text(*record[3:]):
                raise ValueError(repr(next(v for v in record[3:] if not fileio.number_text(v))))
            values = np.array([float(v) for v in record[3:]], dtype=float)
        except ValueError as exc:
            raise FeatureError(f"{where} has a value that is not a number: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise FeatureError(f"{where} has non-finite feature values")
        rows.append(FeatureRow(record[0], record[1], values, _CSV_LABELS[record[2]]))
    if not rows:
        raise FeatureError(f"no feature rows in {path}")
    return names, rows


def align(rows, others, sides=("learned features", "engineered features"), complete=True) -> list:
    """Pair each item of `rows` with the item of `others` that has its patch_id.

    The pairs follow the order of `rows`. Every row needs a partner and no
    patch_id may repeat in `rows`; with `complete`, every item of `others`
    needs a partner too. `sides` names the two inputs in error messages.
    """
    by_id = {o.patch_id: o for o in others}
    pairs, seen = [], set()
    for row in rows:
        if row.patch_id in seen:
            raise FeatureError(f"patch {row.patch_id!r} appears twice in the {sides[0]}")
        seen.add(row.patch_id)
        other = by_id.get(row.patch_id)
        if other is None:
            raise FeatureError(f"patch {row.patch_id!r} is in the {sides[0]} but not in the {sides[1]}")
        pairs.append((row, other))
    missing = sorted(set(by_id) - seen)
    if complete and missing:
        raise FeatureError(f"patch {missing[0]!r} is in the {sides[1]} but not in the {sides[0]} "
                           f"(of {len(missing)} missing)")
    return pairs


def corpus_features(cor, feature_set, pairs=None) -> tuple[list[str], list[FeatureRow]]:
    """Feature names and rows for a corpus: `learned` (crossed embedding pairs),
    `engineered`, or `concat` (both, learned first).

    Learned and concat rows follow `pairs`, which must cover the corpus
    exactly; engineered rows follow the corpus. Unlabeled patches get label None.
    """
    if feature_set == "engineered":
        return engineered.feature_names(), [
            FeatureRow(rec.patch_id, rec.bug_id, engineered.extract_all(rec).values, _LABELS.get(rec.label))
            for rec in cor.records
        ]
    if feature_set not in ("learned", "concat"):
        raise FeatureError(f"unknown feature set {feature_set!r}; choose learned|engineered|concat")
    if not pairs:
        raise FeatureError(f"{feature_set} features need embedding pairs")
    rows = []
    for pair, rec in align(pairs, cor.records, ("embeddings", "corpus")):
        values = crossing.cross(pair).values
        if feature_set == "concat":
            values = combine.naive_concat(values, engineered.extract_all(rec).values)
        rows.append(FeatureRow(pair.patch_id, rec.bug_id, values, _LABELS.get(rec.label)))
    names = crossing.feature_names(pairs[0].n)
    if feature_set == "concat":
        names += engineered.feature_names()
    return names, rows


def join_feature_sets(learned_csv, engineered_csv) -> tuple[list[str], list[str], list[JointRow]]:
    """Align a learned and an engineered feature CSV by patch_id.

    Every patch must appear in both files with a consistent bug_id and label.
    """
    learned_names, learned_rows = read_features(learned_csv)
    engineered_names, engineered_rows = read_features(engineered_csv)
    joint = []
    for row, other in align(learned_rows, engineered_rows):
        if other.bug_id != row.bug_id or other.label != row.label:
            raise FeatureError(f"patch {row.patch_id!r}: bug_id/label disagree between feature files")
        joint.append(JointRow(row.patch_id, row.bug_id, row.label,
                              learned=row.features, engineered=other.features))
    return learned_names, engineered_names, joint
