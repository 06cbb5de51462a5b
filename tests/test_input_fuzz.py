"""Structural fuzzing of every input file a command reads.

Each example changes one JSON value, one key or one line of a fixture
input (corpus, bundle, transcript header or entry, run log, config file)
and runs the command that reads it, in-process. Whatever the change, the
command returns 0, 1 or 2 and lets no exception through; a 2 is an input
error, printed as one line that names the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skillpath import cli

from conftest import FIXTURES, TRICKY

# stands for an integer of more digits than CPython converts, written into the file as is
HUGE = "\x00huge"
TEXT = st.lists(TRICKY, max_size=6).map("".join)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.just(HUGE),
    TEXT, st.sampled_from(["", "q1", "live", "mock", "replay", "random", "2026-01-01T00:00:00Z"]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=4)
KEYS = st.one_of(TEXT, st.sampled_from(
    ["question_id", "question", "documents", "gold_answers", "version", "entries", "fingerprint",
     "request", "result", "usage", "total_tokens", "examples", "strategy", "skills", "parallelism", "seed"]))
CONFIG = {"provider": "replay", "select_mode": "full", "seed": 7, "parallelism": 2, "delta": 7, "count": 5,
          "gen_mode": "guided-fill"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of the fixture inputs, with a run log and a config file made from them."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("corpus.jsonl", "collection.json", "transcript.jsonl"):
        shutil.copy(os.path.join(FIXTURES, name), root / name)
    (root / "config.json").write_text(json.dumps(CONFIG, indent=2) + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*answer(root, "run.jsonl"), "--provider", "replay"]) == 0
    with pytest.MonkeyPatch.context() as env:
        for name in [name for name in os.environ if name.startswith("SKILLPATH_")]:
            env.delenv(name)
        # a config file may pick the live provider, whose every call is then refused at once
        env.setenv("SKILLPATH_API_BASE", "http://127.0.0.1:9")
        env.setenv("SKILLPATH_MODEL", "m")
        env.setenv("SKILLPATH_MAX_RETRIES", "0")
        yield root


def answer(root, run_log="out.jsonl"):
    return ["answer", "--corpus", str(root / "corpus.jsonl"), "--collection", str(root / "collection.json"),
            "--transcript", str(root / "transcript.jsonl"), "--run-log", str(root / run_log)]


def replay(root):
    return [*answer(root), "--provider", "replay"]


# target -> (the file it changes, the lines of it a change may touch, the command that reads it)
TARGETS = {
    "corpus": ("corpus.jsonl", slice(None), replay),
    "bundle": ("collection.json", slice(None), replay),
    "transcript-header": ("transcript.jsonl", slice(0, 1), replay),
    "transcript-entry": ("transcript.jsonl", slice(1, None), replay),
    "run-log": ("run.jsonl", slice(None), lambda root: [
        "eval", "--corpus", str(root / "corpus.jsonl"), "--run-log", str(root / "run.jsonl"),
        "--report", str(root / "report.json")]),
    "config": ("config.json", slice(None), lambda root: [*answer(root), "--config", str(root / "config.json")]),
}


def nodes(doc, path=()):
    """(path, value) of the document and of everything it holds."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from nodes(value, (*path, key))


def replaced(doc, path, value):
    """A copy of the document with the value at path replaced."""
    if not path:
        return value
    head, *rest = path
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = replaced(doc[head], rest, value)
    return copy


@st.composite
def mutated_line(draw, doc):
    """One JSON line or document with one value or key changed, as text."""
    path, node = draw(st.sampled_from(list(nodes(doc))))
    if isinstance(node, dict) and draw(st.booleans()):
        how = draw(st.sampled_from(["delete", "rename", "add"])) if node else "add"
        new = dict(node)
        if how != "add":
            value = new.pop(draw(st.sampled_from(sorted(node))))
            if how == "rename":
                new[draw(KEYS)] = value
        else:
            new[draw(KEYS)] = draw(VALUES)
        doc = replaced(doc, path, new)
    else:
        # another value of the same document swaps types between fields
        others = [value for _, value in nodes(doc)]
        doc = replaced(doc, path, draw(st.one_of(VALUES, st.sampled_from(others))))
    return json.dumps(doc).replace(json.dumps(HUGE), "1" + "0" * 4400)


@st.composite
def mutated_file(draw, text, lines):
    """The file's text with one of the given lines changed, removed, repeated or cut short."""
    split = text.splitlines(keepends=True)
    index = draw(st.sampled_from(range(len(split))[lines]))
    line = split[index]
    how = draw(st.sampled_from(["json", "json", "delete", "repeat", "cut", "junk"]))
    if how == "json" and text.lstrip().startswith("{\n"):  # a whole-file document: change it as one
        return draw(mutated_line(json.loads(text))) + "\n"
    if how == "json":
        line = draw(mutated_line(json.loads(line))) + "\n"
    elif how == "delete":
        line = ""
    elif how == "repeat":
        line = line + line
    elif how == "cut":
        line = line[: draw(st.integers(0, len(line) - 1))]
    else:
        line = draw(TEXT) + "\n"
    return "".join([*split[:index], line, *split[index + 1:]])


@settings(max_examples=35, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("target", TARGETS)
@given(data=st.data())
def test_a_changed_input_exits_0_1_or_2_and_an_input_error_names_the_file(inputs, target, data):
    name, lines, argv = TARGETS[target]
    path = inputs / name
    text = path.read_text(encoding="utf-8")
    stderr = io.StringIO()
    try:
        # a lone surrogate is written as the bytes UTF-8 would give it, which no reader decodes
        path.write_bytes(data.draw(mutated_file(text, lines), label="file").encode("utf-8", "surrogatepass"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv(inputs))
    finally:
        path.write_text(text, encoding="utf-8")
    assert code in (0, 1, 2)
    if code == 2:
        printed = stderr.getvalue().splitlines()
        assert len(printed) == 1 and str(path) in printed[0], printed
