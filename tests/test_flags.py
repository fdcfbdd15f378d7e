"""One-value edits of every flag of every command that is not a path, on a
seeded 8-bug corpus with a tiny embedder, as tests/test_model_files.py edits
every model file. Each value goes through cli.main twice: once on the command
line and once as the --config entry of the same name, with RuntimeWarnings
raised as errors (pyproject.toml's pytest filterwarnings, and the CI step's
-W error::RuntimeWarning).

A run passes if it exits 1 with one error[<category>] line and writes no
file, or exits 0 with finite outputs. A value that breaks its flag's rule
(a number flag's value that is no number as fileio.is_number has them, a
value outside a flag's choices, a seed below 0, a config entry of the wrong
type) must end in error[usage] naming the flag.
Where the two forms carry the same value, they print the same line and
write the same files.

Valid but huge sizes (--bugs 10**9, --epochs 10**6) are left out: they are
not bad input and would run for hours. 10**400, an integer too large for a
float, is no number, and is refused as one."""

import csv
import json
import math
import shutil

import pytest

from patchpred import cli, fileio

# Flags that name a file to read; output flags are marked in cli.COMMANDS.
PATHS = {"input", "corpus", "embeddings", "model", "features", "stats", "background", "a", "b",
         "learned-features", "engineered-features"}

# Each edit as (command-line text, the value that text spells).
# Text that float() and int() read but a JSON number never spells ("1_0",
# " 4") stays text, and a number flag refuses it.
EDITS = (("0", 0), ("-1", -1), (str(10**400), 10**400), ("nan", math.nan), ("inf", math.inf), ("", ""),
         ("abc", "abc"), ("1_0", "1_0"), (" 4", " 4"))

# The least value of the flags that have one: numpy's rule for a seed.
LEAST = {"seed": 0}

# A run of each command that exits 0; an edit replaces or adds one flag.
BASE = {
    "ingest": ["--input", "CORPUS", "--out", "OUT/c.jsonl"],
    "gen-synthetic": ["--bugs", "8", "--patches-per-bug", "2", "--signal", "xor", "--seed", "1",
                      "--out", "OUT/c.jsonl"],
    "train-embedder": ["--corpus", "CORPUS", "--dim", "4", "--epochs", "2", "--negative", "2", "--lr", "0.05",
                       "--min-count", "1", "--embedder-seed", "1", "--out", "OUT/e.json"],
    "features": ["--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--set", "learned", "--out", "OUT/f.csv"],
    "stats": ["--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--label-filter", "all", "--out", "OUT/s.json"],
    "filter": ["--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--policy", "0.5", "--out", "OUT/f.json"],
    "train": ["--features", "LEARNED", "--learner", "nb", "--seed", "1", "--out", "OUT/m.json"],
    "crossval": ["--features", "LEARNED", "--learner", "nb", "--k", "4", "--seed", "1", "--threshold", "0.5",
                 "--out", "OUT/cv.json"],
    "combine": ["--strategy", "concat", "--learner", "nb", "--learned-features", "LEARNED",
                "--engineered-features", "ENGINEERED", "--k", "4", "--seed", "1", "--threshold", "0.5",
                "--out", "OUT/cb.json"],
    "explain": ["--model", "MODEL", "--features", "LEARNED", "--out", "OUT/x.csv"],
    "compare": ["--a", "PREDICTIONS", "--b", "PREDICTIONS", "--threshold", "0.5", "--out", "OUT/o.json"],
}

EDITED = [(command, flag) for command, (_func, _help, flags) in cli.COMMANDS.items()
          for flag in flags if flag.name not in PATHS and not flag.output]


def run(argv, capsys):
    """(exit status, stderr) of one in-process run; argparse's own refusal
    exits through SystemExit."""
    try:
        status = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The seeded corpus and every file the base runs read."""
    root = tmp_path_factory.mktemp("flags")
    paths = {name: root / f"{name.lower()}{ext}" for name, ext in (
        ("CORPUS", ".jsonl"), ("EMBEDDER", ".json"), ("EMBEDDINGS", ".jsonl"), ("LEARNED", ".csv"),
        ("ENGINEERED", ".csv"), ("MODEL", ".json"), ("PREDICTIONS", ".csv"))}
    for argv in (["gen-synthetic", "--bugs", "8", "--patches-per-bug", "4", "--seed", "3", "--out", "CORPUS"],
                 ["train-embedder", "--corpus", "CORPUS", "--dim", "4", "--epochs", "3", "--out", "EMBEDDER"],
                 ["embed", "--corpus", "CORPUS", "--model", "EMBEDDER", "--out", "EMBEDDINGS"],
                 ["features", "--corpus", "CORPUS", "--embeddings", "EMBEDDINGS", "--out", "LEARNED"],
                 ["features", "--corpus", "CORPUS", "--set", "engineered", "--out", "ENGINEERED"],
                 ["train", "--features", "LEARNED", "--learner", "dt", "--out", "MODEL"],
                 ["crossval", "--features", "LEARNED", "--learner", "nb", "--k", "4", "--out", "CV",
                  "--out-predictions", "PREDICTIONS"]):
        assert cli.main([str(paths.get(a, root / "cv.json" if a == "CV" else a)) for a in argv]) == 0
    return paths


def _fill(argv, files, out):
    return [str(out) + a[3:] if a.startswith("OUT/") else str(files.get(a, a)) for a in argv]


def _finite(path):
    """Whether every number in the JSON, JSON-lines or CSV file `path` is finite."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        numbers = []
        for row in csv.reader(text.splitlines()):
            for field in row:
                try:
                    numbers.append(float(field))
                except ValueError:
                    pass
        return all(map(math.isfinite, numbers))
    try:
        for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(line, parse_constant=lambda name: 1 / 0)  # NaN, Infinity and -Infinity
    except ZeroDivisionError:
        return False
    return True


def _breaks_rule(flag, value) -> bool:
    """Whether `value` breaks the rule of `flag`, as the flag declares it."""
    if flag.choices:
        return value not in flag.choices
    if flag.type in (str, bool):
        return not isinstance(value, flag.type)
    return not fileio.is_number(value, integer=flag.type is int) or value < LEAST.get(flag.name, -math.inf)


def test_every_command_with_a_flag_to_edit_has_a_base_run_that_exits_0(files, tmp_path):
    assert {command for command, _flag in EDITED} == set(BASE)
    for command, argv in BASE.items():
        out = tmp_path / command
        assert cli.main([command, *_fill(argv, files, out)]) == 0, command
        assert all(_finite(path) for path in out.iterdir())


@pytest.mark.parametrize("command, flag", EDITED, ids=[f"{c}--{f.name}" for c, f in EDITED])
def test_an_edited_flag_is_refused_with_a_category_or_runs_to_finite_outputs(command, flag, files, tmp_path,
                                                                              capsys):
    base, name = BASE[command], f"--{flag.name}"
    if name in base:  # drop the base run's value: the edit's comes from one source only
        at = base.index(name)
        base = base[:at] + base[at + 1 + (flag.type is not bool):]
    out, config = tmp_path / "out", tmp_path / "config.json"
    for text, value in EDITS:
        forms = {"config": value}
        if flag.type is not bool:  # a bool flag takes no value on the command line
            forms["command line"] = value if flag.type in (int, float) else text
        seen = {}
        config.write_text(json.dumps({flag.name: value}))
        for form, carried in forms.items():
            argv = ([command, *_fill(base, files, out), name, text] if form == "command line"
                    else ["--config", config, command, *_fill(base, files, out)])
            status, err = run(argv, capsys)
            case = f"{command} {name} {text!r} from the {form}: exit {status}, {err!r}"
            assert status in (0, 1), case
            if status == 1:
                assert err.startswith("error[") and err.count("\n") == 1 and "Traceback" not in err, case
                assert not err.startswith("error[error]") and not out.exists(), case
            else:
                assert all(_finite(path) for path in out.iterdir()), case
            if _breaks_rule(flag, carried):
                assert err.startswith(f"error[usage]: {name} must be "), case
            written = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
            seen.setdefault(repr(carried), []).append((status, err, written))
            shutil.rmtree(out, ignore_errors=True)
        for same_value in seen.values():  # the same value from both forms: one line and the same files
            assert all(outcome == same_value[0] for outcome in same_value), f"{command} {name} {text!r}"
