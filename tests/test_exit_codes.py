"""The exit-code contract, drawn rather than listed: a malformed input file
exits 2 with one `error:` line naming it, and never 1 or 3.

Each case mutates one file of a small valid workspace (a dataset, a raw log,
a parser output, both pools and a plan) and runs it through every command
that reads it, via `cli.main` in-process, with the other files intact.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend.cli import EXIT_DATA, EXIT_OK, main

# The CSV files hold quoted fields, with commas and doubled quotes, so that an
# edited byte can break the quoting the reader checks.
_DATASET = (
    "LineId,Content,EventTemplate\n"
    "1,open file 1,open file <*>\n"
    '2,"open file 2, ""fast""","open file <*>, ""fast"""\n'
    '3,"read 3, 4 bytes","read <*>, <*> bytes"\n'
    "4,close all,close all\n"
    "5,open file 9,open file <*>\n"
)
_RAW = "open file 1\n\nclose all\nread 3 bytes\n"
_PARSED = (
    "LineId,EventTemplate\n"
    '1,open file <*>\n2,"open file <*>, ""fast"""\n'
    '3,"read <*>, <*>"\n4,close all\n5,open <*>\n'
)
_OUTLIER_POOL = (
    "LineId,Content,EventTemplate,Source\n"
    "1,seek 7,seek <*>,other\n"
    '2,"sync, disk 2","sync, disk <*>",more\n'
)
_VARIABLE_POOL = "1\tds\n42\tother\nx y\tds\tother\n"
_PLAN = json.dumps(
    {
        "datasets": ["ds.csv"],
        "parsers": [{"kind": "tree", "depth": 3}, {"kind": "external", "path": "parsed.csv"}],
        "synthesis": {
            "mix_strength": 1.0,
            "fuzz_mode": "labeled",
            "outlier_pool": "outlier_pool.csv",
            "variable_pool": "variable_pool.tsv",
        },
        "runs": 1,
        "base_seed": 0,
        "reference": {"nuw": 50, "nuc": 40, "nuldl": 10},
    },
    indent=2,
)
FILES = {
    "ds.csv": _DATASET,
    "raw.log": _RAW,
    "parsed.csv": _PARSED,
    "outlier_pool.csv": _OUTLIER_POOL,
    "variable_pool.tsv": _VARIABLE_POOL,
    "plan.json": _PLAN,
}

#: Every command. Each argument that names a workspace file is a file it
#: reads; "out" and "pools" name its output.
COMMANDS = [
    ["stats", "--in", "ds.csv"],
    ["heterogeneity", "--in", "ds.csv"],
    ["stats", "--raw", "--in", "raw.log"],
    ["heterogeneity", "--raw", "--in", "raw.log"],
    ["pool", "build", "ds.csv", "--out", "pools"],
    ["mix", "--in", "ds.csv", "--pool", "outlier_pool.csv", "--strength", "1", "--out", "out"],
    ["mix", "--in", "ds.csv", "--pool", "outlier_pool.csv", "--strength", "1",
     "--parsed", "parsed.csv", "--out", "out"],
    ["fuzz", "--in", "ds.csv", "--vpool", "variable_pool.tsv", "--out", "out"],
    ["fuzz", "--in", "ds.csv", "--vpool", "variable_pool.tsv",
     "--parsed", "parsed.csv", "--out", "out"],
    ["parse", "--in", "ds.csv", "--out", "out"],
    ["parse", "--parser", "tokenfreq", "--raw", "--in", "raw.log", "--out", "out"],
    ["combine", "ds.csv", "--size", "2", "--out", "out"],
    ["evaluate", "--truth", "ds.csv", "--predicted", "parsed.csv"],
    ["benchmark", "--plan", "plan.json"],
]
#: The files a plan names, read by the command that reads the plan.
_NAMED_BY_PLAN = {"ds.csv", "parsed.csv", "outlier_pool.csv", "variable_pool.tsv"}

#: Bytes that matter to the formats: a quote, a comma, CR, LF, NUL, and
#: bytes that are not UTF-8 (a lone continuation byte, a lone lead byte).
_SPECIAL = st.sampled_from([b'"', b",", b"\r", b"\n", b"\0", b"\x80", b"\xc3", b"\xff"])
_AT = st.integers(0, 10**6)
_BYTE_EDITS = st.one_of(
    st.tuples(st.just("delete"), _AT),
    st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("insert"), _AT, _SPECIAL),
    st.tuples(st.just("replace"), _AT, st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("repeat line"), _AT),
    st.tuples(st.just("drop line"), _AT),
)


def _edit(data: bytes, edit: tuple) -> bytes:
    kind, at, *byte = edit
    if kind == "insert":
        at %= len(data) + 1
        return data[:at] + byte[0] + data[at:]
    if not data:
        return data
    if kind in ("delete", "replace"):
        at %= len(data)
        return data[:at] + b"".join(byte) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    at %= len(lines)
    copies = 2 if kind == "repeat line" else 0
    return b"".join(lines[:at] + [lines[at]] * copies + lines[at + 1:])


class _Object(list):
    """A JSON object as its (key, value) pairs, so a key can be repeated."""


def _pairs(value):
    if isinstance(value, dict):
        return _Object((key, _pairs(v)) for key, v in value.items())
    if isinstance(value, list):
        return [_pairs(v) for v in value]
    return value


class _Nested:
    """A value inside `depth` one-element arrays, written without recursion."""

    def __init__(self, value, depth: int):
        self.value, self.depth = value, depth


def _dump(node) -> str:
    if isinstance(node, _Object):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(v)}" for key, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    if isinstance(node, _Nested):
        return "[" * node.depth + _dump(node.value) + "]" * node.depth
    return json.dumps(node)


#: One value of each JSON type.
_OF_EACH_TYPE = [None, True, 2, 0.5, "x", [], _Object()]


def _slots(holder: list) -> list[tuple[list, int]]:
    """Each (container, index) of a value in `holder`, the root's included."""
    found = []
    for i, item in enumerate(holder):
        found.append((holder, i))
        value = item[1] if isinstance(holder, _Object) else item
        if isinstance(value, list):
            found.extend(_slots(value))
    return found


@st.composite
def _plan_edit(draw) -> bytes:
    """The plan with one key or element dropped or repeated, or one value
    given another JSON type or nested deeper, up to too deep to parse."""
    holder = [_pairs(json.loads(_PLAN))]
    container, i = draw(st.sampled_from(_slots(holder)))
    keyed = isinstance(container, _Object)
    value = container[i][1] if keyed else container[i]
    kind = draw(st.sampled_from(["drop", "repeat", "retype", "nest"]))
    if kind == "drop":
        del container[i]
    elif kind == "repeat":
        container.insert(i, container[i])
    else:
        if kind == "retype":
            others = [v for v in _OF_EACH_TYPE if type(v) is not type(value)]
            new = draw(st.sampled_from(others))
        else:
            new = _Nested(value, draw(st.sampled_from([1, 2, 100, 100_000])))
        container[i] = (container[i][0], new) if keyed else new
    return "".join(map(_dump, holder)).encode("utf-8")


def _names(err: str, name: str, root) -> bool:
    """Whether `err` names the workspace file `name`.

    A file is named by its path; a dataset also by the name its loader gives
    it, and a pool by the plan key that names it. A dataset whose record
    count no longer matches the parser output is reported on the parser
    output, with both counts. A plan is also named by one of its keys, or by
    the path a plan value gives in place of a workspace file.
    """
    stem = name.split(".")[0]
    named = (str(root / name), f"dataset {stem!r}", f"plan.synthesis.{stem} ")
    if any(text in err for text in named):
        return True
    if name == "ds.csv":
        parsed = re.escape(str(root / "parsed.csv"))
        mismatch = re.fullmatch(rf"error: {parsed}: \d+ templates for \d+ records\n", err)
        return mismatch is not None
    if name != "plan.json":
        return False
    if err.startswith("error: plan"):
        return True
    missing = re.fullmatch(r"error: \[Errno \d+\] [^:]+: '(.*)'\n", err)
    return missing is not None and missing[1] not in {str(root / f) for f in FILES}


def _run(argv: list[str], root) -> tuple[int, str]:
    """`main`'s exit code and stderr for `argv`, its file names taken in `root`."""
    argv = [str(root / arg) if arg in {*FILES, "out", "pools"} else arg for arg in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(name: str, mutated: bytes, root) -> None:
    for file, text in FILES.items():
        (root / file).write_bytes(mutated if file == name else text.encode("utf-8"))
    for argv in COMMANDS:
        if name not in argv and not ("plan.json" in argv and name in _NAMED_BY_PLAN):
            continue
        code, err = _run(argv, root)
        assert code in (EXIT_OK, EXIT_DATA), (argv, mutated, err)
        if code == EXIT_DATA:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, mutated, err)
            assert _names(err, name, root), (argv, mutated, err)


#: Deterministic and bounded: the module runs in well under 3 s.
_SETTINGS = settings(derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("name", sorted(FILES))
@settings(_SETTINGS, max_examples=20)
@given(edits=st.lists(_BYTE_EDITS, min_size=1, max_size=3))
def test_a_file_with_edited_bytes_exits_0_or_2_naming_it(name, edits, tmp_path_factory):
    data = FILES[name].encode("utf-8")
    for edit in edits:
        data = _edit(data, edit)
    _check(name, data, tmp_path_factory.mktemp("bytes"))


@settings(_SETTINGS, max_examples=40)
@given(plan=_plan_edit())
def test_a_plan_with_an_edited_structure_exits_0_or_2_naming_it(plan, tmp_path_factory):
    _check("plan.json", plan, tmp_path_factory.mktemp("plan"))


def test_the_unedited_workspace_exits_0(tmp_path):
    # Every command succeeds on the files as given, so an exit 2 above is the edit's.
    for file, text in FILES.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    for argv in COMMANDS:
        assert _run(argv, tmp_path) == (EXIT_OK, ""), argv
