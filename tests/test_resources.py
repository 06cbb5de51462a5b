from __future__ import annotations

import builtins
import errno
import json
import os
import re
import string
from importlib.resources import files

import pytest

import skillpath.resources as resources
from skillpath import cli, corpus
from skillpath.errors import StorageError, ValidationError
from skillpath.providers import TRANSCRIPT_VERSION, Transcript
from skillpath.resources import check_writable, parse_jsonl, read_json, write_lines, write_text


class _DiskFullAfterHalf:
    """A text file whose write stores half the text, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


def test_write_replaces_the_whole_file(tmp_path):
    target = tmp_path / "out.json"
    write_text(str(target), "first\n", "report")
    write_text(str(target), "second\n", "report")
    assert target.read_text(encoding="utf-8") == "second\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    write_text(str(target), "previous contents\n", "report")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _DiskFullAfterHalf(fh) if "w" in mode else fh

    monkeypatch.setattr(resources, "open", failing_open, raising=False)
    with pytest.raises(StorageError, match="cannot write report"):
        write_text(str(target), "replacement contents that never fully land\n", "report")

    assert target.read_text(encoding="utf-8") == "previous contents\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_into_missing_directory_raises_storage_error(tmp_path):
    with pytest.raises(StorageError):
        write_text(str(tmp_path / "absent" / "out.json"), "x", "run log")
    assert os.listdir(tmp_path) == []


def test_a_writable_check_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "run.jsonl"
    target.write_text("kept\n", encoding="utf-8")
    check_writable(str(target), "run log")
    assert os.listdir(tmp_path) == ["run.jsonl"]
    assert target.read_text(encoding="utf-8") == "kept\n"
    with pytest.raises(StorageError, match="^cannot write run log "):
        check_writable(str(tmp_path / "missing" / "run.jsonl"), "run log")


def test_a_writable_check_makes_the_temporary_file_that_the_writer_writes_through(tmp_path, monkeypatch):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(resources, "open", recording_open, raising=False)
    target = str(tmp_path / "run.jsonl")
    check_writable(target, "run log")
    write_lines(target, ["a line\n"], "run log")
    assert len(opened) == 2
    assert opened[0] == opened[1] != target


def test_data_override_wins_and_a_file_it_lacks_is_read_from_the_package(
    tmp_path, monkeypatch, uncached_loaders
):
    (tmp_path / "entity_pool.json").write_text(
        json.dumps({"types": {"place": ["Atlantis"]}}), encoding="utf-8"
    )
    monkeypatch.setenv(resources.DATA_DIR_ENV, str(tmp_path))
    assert resources.load_entity_pool() == {"place": ("Atlantis",)}
    bundled = files("skillpath").joinpath("data", "repair_cues.json").read_text(encoding="utf-8")
    assert resources.load_repair_cues() == [c.casefold() for c in json.loads(bundled)["cues"]]


def test_prompt_override_wins_and_a_file_it_lacks_is_read_from_the_package(
    tmp_path, monkeypatch, uncached_loaders
):
    (tmp_path / "segment_extraction.txt").write_text("Edited $document", encoding="utf-8")
    monkeypatch.setenv(resources.PROMPT_DIR_ENV, str(tmp_path))
    assert resources.load_prompt("segment_extraction") == "Edited $document"
    bundled = files("skillpath").joinpath("prompts", "guided_answer.txt").read_text(encoding="utf-8")
    assert resources.load_prompt("guided_answer") == bundled


# each bundled template's $ slots: exactly what its one caller passes
BUNDLED_TEMPLATE_SLOTS = {
    "entity_substitution": {"template_text", "slot_lines", "count"},
    "template_variation": {"question", "template_text", "count"},
    "similarity_scoring": {"original_question", "candidate_questions"},
    "strategy_generation": {"skill_catalog", "question"},
    "reference_document": {"subquestions"},
    "segment_extraction": {"question_line", "skill_name", "skill_description", "document"},
    "guided_answer": {"question", "documents", "reasoning_path", "skills", "demonstration"},
}


def test_the_slot_table_covers_every_bundled_template():
    bundled = {entry.name for entry in files("skillpath").joinpath("prompts").iterdir()}
    assert bundled == {f"{name}.txt" for name in BUNDLED_TEMPLATE_SLOTS}


@pytest.mark.parametrize("name, slots", sorted(BUNDLED_TEMPLATE_SLOTS.items()),
                         ids=sorted(BUNDLED_TEMPLATE_SLOTS))
def test_a_bundled_template_names_exactly_its_callers_slots(monkeypatch, uncached_loaders, name, slots):
    monkeypatch.delenv(resources.PROMPT_DIR_ENV, raising=False)
    text = files("skillpath").joinpath("prompts", f"{name}.txt").read_text(encoding="utf-8")
    found = list(string.Template.pattern.finditer(text))
    assert [m.group(0) for m in found if m.group("invalid") is not None] == []
    assert {m.group("named") or m.group("braced") for m in found if m.group("escaped") is None} == slots
    assert resources.render_prompt(name, **{slot: "x" for slot in slots})


@pytest.mark.parametrize(
    "name, text",
    [
        ("entity_pool.json", json.dumps({"place": ["Atlantis"]})),
        ("entity_pool.json", json.dumps({"types": ["Atlantis"]})),
        ("entity_pool.json", json.dumps({"types": {"place": "Atlantis"}})),
        ("entity_pool.json", json.dumps({"types": {"place": [7]}})),
        ("entity_pool.json", "{not json"),
        ("repair_cues.json", json.dumps(["wait"])),
        ("repair_cues.json", json.dumps({"cues": "wait"})),
        ("repair_cues.json", "{not json"),
        ("repair_cues.json", '{"cues": ["wait", "\\udc00"]}'),
    ],
    ids=["pool-no-types", "pool-types-list", "pool-names-string", "pool-name-number",
         "pool-invalid-json", "cues-array", "cues-string", "cues-invalid-json", "cues-lone-surrogate"],
)
def test_a_malformed_data_file_is_a_storage_error(tmp_path, monkeypatch, uncached_loaders, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setenv(resources.DATA_DIR_ENV, str(tmp_path))
    loader = {"entity_pool.json": resources.load_entity_pool,
              "repair_cues.json": resources.load_repair_cues}[name]
    with pytest.raises(StorageError, match=name):
        loader()


# JSON text as a file holds it: each \u escape is six characters
@pytest.mark.parametrize(
    "text, line",
    [
        ('{"a": "x"}\n{"b": ["y", "caf\\ud800e"]}\n', 2),
        ('{"a": "x"}\n\n{"b": "\\uDFFF"}\n', 3),
        ('{"\\udc00": 1}\n', 1),
        ('{"a": "\\ud83d\\ude00 \\\\ud800"}\n{"b": "\\ud83d"}\n', 2),
        ('{"a": "\\ud83d\\ude00", "b": "\\\\ud800", "c": "\\\\\\"\\ud7ff"}\n', None),
    ],
    ids=["high", "low-upper-case", "in-a-key", "after-a-pair", "pair-and-escaped-backslash"],
)
def test_a_jsonl_string_with_a_lone_surrogate_is_a_parse_error_naming_its_line(text, line):
    if line is None:
        assert len(list(parse_jsonl(text.split("\n"), "in.jsonl"))) == 1
        return
    with pytest.raises(ValidationError, match="lone surrogate") as raised:
        list(parse_jsonl(text.split("\n"), "in.jsonl"))
    assert (raised.value.path, raised.value.line) == ("in.jsonl", line)


def test_a_json_document_with_a_lone_surrogate_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "bundle.json"
    # json.dumps escapes the surrogate; the string lands on line 5
    path.write_text(json.dumps({"collections": {"q1": ["fine", "caf\udc00"]}}, indent=2), encoding="utf-8")
    with pytest.raises(ValidationError, match="lone surrogate") as raised:
        read_json(str(path), "bundle")
    assert (raised.value.path, raised.value.line) == (str(path), 5)


USAGE = {"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2}
# the corpus a run log is checked against
CORPUS = {qid: corpus.QARecord(qid, "Who?", ("A sentence.",), ("A",)) for qid in ("k1", "k2")}

# every line-delimited reader: (load the file at a path, the key its lines are unique by, a field
# a line needs, the lines before the keyed ones, a valid line with a given key)
READERS = {
    "corpus": (corpus.load_records, "question_id", "question", [],
               lambda key: {"question_id": key, "question": "Who?", "documents": ["A sentence."],
                            "gold_answers": ["A"]}),
    "run-log": (lambda path: cli._load_run_log(path, "run log", CORPUS), "question_id", "answer", [],
                lambda key: {"question_id": key, "answer": "A", "completion": "A", "usage": USAGE}),
    "baseline-log": (lambda path: cli._baseline_token_mean(path, CORPUS), "question_id", "completion", [],
                     lambda key: {"question_id": key, "answer": "A", "completion": "A", "usage": USAGE}),
    "transcript": (Transcript.load, "fingerprint", "result", [{"version": TRANSCRIPT_VERSION, "entries": 2}],
                   lambda key: {"fingerprint": key, "request": {"prompt": "p"},
                                "result": {"text": "t", "usage": USAGE}}),
}


@pytest.mark.parametrize("fault", ["not-an-object", "missing-field", "repeated-key", "repeated-json-key",
                                   "invalid-json", "huge-integer"])
@pytest.mark.parametrize("reader", READERS)
def test_every_line_reader_words_a_bad_line_alike_and_names_its_line(tmp_path, reader, fault):
    load, key, field, head, line = READERS[reader]
    # the bad line follows a valid one keyed "k1"
    bad, message = {
        "not-an-object": ("[1, 2]", "line is not a JSON object"),
        "missing-field": (json.dumps({k: v for k, v in line("k2").items() if k != field}),
                          f"missing field {field!r}"),
        "repeated-key": (json.dumps(line("k1")), f"repeats {key} 'k1'"),
        # the last value would win silently
        "repeated-json-key": (json.dumps(line("k2"))[:-1] + f', "{key}": "k2"}}',
                              f"an object repeats the key {key!r}"),
        "invalid-json": ("{oops", "invalid JSON: "),
        # valid JSON, but past the digits CPython converts to an int
        "huge-integer": (json.dumps(line("k2"))[:-1] + ', "n": ' + "9" * 5000 + "}",
                         "unreadable JSON: Exceeds the limit (4300 digits)"),
    }[fault]
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in [*head, line("k1")]) + bad + "\n",
                    encoding="utf-8")
    number = len(head) + 2
    where = re.escape(f"{path}:{number}: {message}")
    with pytest.raises(ValidationError, match=f"^{where}") as raised:
        load(str(path))
    assert raised.value.line == number


def _by_value(loaded):
    """A reader's result as values that compare equal when the records read are the same."""
    return [getattr(item, "__dict__", item) for item in (loaded if isinstance(loaded, list) else [loaded])]


# a line ends at \n, \r\n or a bare \r, as universal newlines have it
@pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", READERS)
def test_every_line_reader_takes_any_line_end_and_skips_blank_lines(tmp_path, reader, end, final):
    load, _, _, head, line = READERS[reader]
    docs = [json.dumps(doc) for doc in [*head, line("k1"), line("k2")]]
    plain = tmp_path / "plain.jsonl"
    plain.write_text("".join(doc + "\n" for doc in docs), encoding="utf-8")
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_bytes((end.join(["", *docs[:-1], " \t", "", docs[-1]]) + end * final).encode("utf-8"))
    assert _by_value(load(str(spaced))) == _by_value(load(str(plain)))

    # the bad line follows a blank line, the head and "k1", and two blank lines
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes((end.join(["", *docs[:-1], "", " \t", "[1, 2]"]) + end * final).encode("utf-8"))
    number = len(docs) + 3
    where = re.escape(f"{bad}:{number}: line is not a JSON object")
    with pytest.raises(ValidationError, match=f"^{where}$"):
        load(str(bad))


# a transcript entry's request, result and usage are read field by field; None drops the field
@pytest.mark.parametrize(
    "part, field, value, message",
    [
        ("request", "model", "m", "unknown field 'model'"),
        ("request", "prompt", None, "missing field 'prompt'"),
        ("result", "finish_reason", "stop", "unknown field 'finish_reason'"),
        ("result", "text", None, "missing field 'text'"),
        ("usage", "cached_tokens", 0, "unknown field 'cached_tokens'"),
        ("usage", "total_tokens", None, "missing field 'total_tokens'"),
    ],
    ids=["request-unknown", "request-missing", "result-unknown", "result-missing", "usage-unknown",
         "usage-missing"],
)
def test_a_transcript_entry_names_its_missing_or_unknown_field(tmp_path, part, field, value, message):
    load, _, _, head, line = READERS["transcript"]
    entry = json.loads(json.dumps(line("k2")))  # a copy: its usage is the shared USAGE
    fields = entry["result"]["usage"] if part == "usage" else entry[part]
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in [*head, line("k1"), entry]), encoding="utf-8")
    where = re.escape(f"{path}:3: {message}")
    with pytest.raises(ValidationError, match=f"^{where}$"):
        load(str(path))


def test_a_transcript_header_that_repeats_a_key_names_its_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(f'{{"version": {TRANSCRIPT_VERSION}, "entries": 1, "entries": 0}}\n', encoding="utf-8")
    where = re.escape(f"{path}:1: an object repeats the key 'entries'")
    with pytest.raises(ValidationError, match=f"^{where}$"):
        Transcript.load(str(path))


def test_a_data_file_that_repeats_a_key_is_a_validation_error(tmp_path, monkeypatch, uncached_loaders):
    (tmp_path / "repair_cues.json").write_text('{"cues": ["wait"], "cues": ["hold on"]}', encoding="utf-8")
    monkeypatch.setenv(resources.DATA_DIR_ENV, str(tmp_path))
    with pytest.raises(ValidationError, match="^repair_cues.json: an object repeats the key 'cues'$"):
        resources.load_repair_cues()


@pytest.mark.parametrize(
    "text, repeated",
    [
        ('{"a": {"b": 1, "b": 2}}', "b"),
        ('[{"b": 1}, {"b": 2, "c": 3, "c": 3}]', "c"),
        ('{"a": {"b": 1}, "c": {"b": 2}}', None),
    ],
    ids=["nested", "in-an-array", "one-key-in-two-objects"],
)
def test_a_key_is_refused_when_one_object_repeats_it_at_any_depth(text, repeated):
    lines = parse_jsonl(["{}", text], "in.jsonl")
    if repeated is None:
        assert len(list(lines)) == 2
        return
    with pytest.raises(ValidationError, match=f"^in.jsonl:2: an object repeats the key '{repeated}'$"):
        list(lines)
