from __future__ import annotations

import json

import pytest

from skillpath import corpus
from skillpath.corpus import QARecord, load_records, record_to_json, save_records
from skillpath.errors import ValidationError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def record_line(**overrides):
    body = {
        "question_id": "q1",
        "question": "Where is the tower?",
        "documents": ["The tower is in Paris. It is tall."],
        "gold_answers": ["Paris"],
        "gold_sentence_ids": [[0, 0]],
    }
    body.update(overrides)
    return json.dumps(body)


def test_load_happy_path(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        [
            record_line(),
            "",  # blank lines are allowed between records
            record_line(question_id="q2", gold_sentence_ids=None),
            record_line(question_id="q3", gold_answers=["Paris", "paris, France"]),
        ],
    )
    records = load_records(path)
    assert [r.question_id for r in records] == ["q1", "q2", "q3"]
    assert records[0].gold_sentence_ids == frozenset({(0, 0)})
    assert records[1].gold_sentence_ids is None
    assert records[2].gold_answers == ("Paris", "paris, France")
    assert isinstance(records[0].documents, tuple)


def test_load_names_line_and_field_on_missing_key(tmp_path):
    bad = json.dumps({"question_id": "q1", "question": "?", "documents": ["d."]})
    path = write_lines(tmp_path / "c.jsonl", [record_line(), bad])
    with pytest.raises(ValidationError) as info:
        load_records(path)
    assert ":2:" in str(info.value)
    assert "gold_answers" in str(info.value)


def test_load_names_line_on_broken_json(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [record_line(), "{not json"])
    with pytest.raises(ValidationError, match=":2: invalid JSON: ") as info:
        load_records(path)
    assert ":2:" in str(info.value)


def test_load_rejects_duplicate_ids(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [record_line(), record_line()])
    with pytest.raises(ValidationError) as info:
        load_records(path)
    assert "q1" in str(info.value)


def test_load_rejects_out_of_range_sentence_ids(tmp_path):
    # document 0 splits into two sentences, so sentence index 5 is out of range
    path = write_lines(
        tmp_path / "c.jsonl", [record_line(gold_sentence_ids=[[0, 5]])]
    )
    with pytest.raises(ValidationError):
        load_records(path)
    path = write_lines(
        tmp_path / "d.jsonl", [record_line(gold_sentence_ids=[[3, 0]])]
    )
    with pytest.raises(ValidationError):
        load_records(path)


def test_validation_splits_only_the_documents_gold_ids_name(tmp_path, monkeypatch):
    split = []
    monkeypatch.setattr(corpus, "split_sentences", lambda text: split.append(text) or [text])
    documents = [f"Document {i} is here." for i in range(5)]
    path = write_lines(
        tmp_path / "c.jsonl",
        [record_line(documents=documents, gold_sentence_ids=[[0, 0], [0, 0]])],
    )
    assert load_records(path)[0].gold_sentence_ids == frozenset({(0, 0)})
    assert split == [documents[0]]


def test_load_rejects_boolean_indices(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl", [record_line(gold_sentence_ids=[[True, 0]])]
    )
    with pytest.raises(ValidationError):
        load_records(path)


@pytest.mark.parametrize("field, value, problem", [
    ("question", " ", "question must be a non-empty string"),
    ("gold_sentence_ids", 5, "gold_sentence_ids must be a list of [d, s] pairs"),
], ids=["blank-question", "gold-ids-number"])
def test_load_names_the_line_and_the_check_a_field_fails(tmp_path, field, value, problem):
    path = write_lines(tmp_path / "c.jsonl", [record_line(), record_line(question_id="q2", **{field: value})])
    with pytest.raises(ValidationError) as info:
        load_records(path)
    assert str(info.value) == f"{path}:2: {problem}"


def test_load_rejects_empty_fields(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [record_line(gold_answers=[])])
    with pytest.raises(ValidationError):
        load_records(path)
    path = write_lines(tmp_path / "d.jsonl", [record_line(documents=[])])
    with pytest.raises(ValidationError):
        load_records(path)


@pytest.mark.parametrize("gold", ["\u2014", " "])
def test_load_rejects_a_gold_answer_without_word_tokens(tmp_path, gold):
    path = write_lines(
        tmp_path / "c.jsonl", [record_line(), record_line(question_id="q2", gold_answers=["Paris", gold])]
    )
    with pytest.raises(ValidationError) as info:
        load_records(path)
    assert f"{path}:2:" in str(info.value)
    assert "word tokens" in str(info.value)


def test_round_trip_is_byte_identical(tmp_path, fixtures_dir):
    source = f"{fixtures_dir}/corpus.jsonl"
    records = load_records(source)
    out = tmp_path / "copy.jsonl"
    save_records(records, str(out))
    with open(source, "rb") as f:
        original = f.read()
    assert out.read_bytes() == original


def test_record_to_json_sorts_ids_and_keys():
    record = QARecord(
        question_id="q9",
        question="?",
        documents=("A. B.",),
        gold_answers=("x",),
        gold_sentence_ids=frozenset({(0, 1), (0, 0)}),
    )
    line = record_to_json(record)
    body = json.loads(line)
    assert body["gold_sentence_ids"] == [[0, 0], [0, 1]]
    assert list(body) == sorted(body)
    assert record_to_json(record) == line


@pytest.mark.parametrize("qid", ["q\t1", "q\n2", "q\u20283"], ids=["tab", "newline", "line-separator"])
def test_load_rejects_a_question_id_that_cannot_be_printed(tmp_path, qid):
    # a question id is a cell of eval's record table and part of a one-line failure message
    path = write_lines(tmp_path / "c.jsonl", [record_line(), record_line(question_id=qid)])
    with pytest.raises(ValidationError) as info:
        load_records(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert "printable" in str(info.value)
