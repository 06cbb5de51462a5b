"""Dataset-neutral QA records: loading, validation, canonical output.

One record per line: {question_id, question, documents[], gold_answers[],
gold_sentence_ids[[d,s],...]}. Gold sentence ids are bounds-checked with
the shared sentence splitter so they always reference positions that the
answerer and the evaluator will agree on. resources.read_keyed reads the
lines, so a record that fails a check here is an error naming path:line.

Converting a public dataset into this shape is a few lines per source:
a reading-comprehension file with one passage per question maps its
passage to documents[0], and a multi-document file concatenates its
titled paragraphs in order, turning each (title, sentence index) pair
into [document index, sentence index]. Converters stay outside the core.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import StorageError
from .resources import json_line, parse_jsonl, read_keyed, read_lines, write_lines
from .textutil import norm_tokens, split_sentences


class QARecord(NamedTuple):
    question_id: str
    question: str
    documents: tuple[str, ...]
    gold_answers: tuple[str, ...]
    gold_sentence_ids: frozenset[tuple[int, int]] | None = None


def _validate_record(doc: dict) -> QARecord:
    qid, question = doc["question_id"], doc["question"]
    documents, gold_answers = doc["documents"], doc["gold_answers"]
    if not isinstance(qid, str) or not qid.strip():
        raise ValueError("question_id must be a non-empty string")
    if not qid.isprintable():  # it is a cell of eval's record table and part of a one-line message
        raise ValueError(f"question_id {qid!r} must be printable")
    if not isinstance(question, str) or not question.strip():
        raise ValueError("question must be a non-empty string")
    if (
        not isinstance(documents, list)
        or not documents
        or not all(isinstance(d, str) and d.strip() for d in documents)
    ):
        raise ValueError("documents must be a non-empty list of non-empty strings")
    if (
        not isinstance(gold_answers, list)
        or not gold_answers
        or not all(isinstance(g, str) for g in gold_answers)
    ):
        raise ValueError("gold_answers must be a non-empty list of strings")
    for g in gold_answers:
        if not norm_tokens(g):
            # eval scores ROUGE-L against each gold answer, which needs a word
            raise ValueError(f"gold answer {g!r} has no word tokens")

    ids = None
    if doc.get("gold_sentence_ids") is not None:
        raw = doc["gold_sentence_ids"]
        if not isinstance(raw, list):
            raise ValueError("gold_sentence_ids must be a list of [d, s] pairs")
        # only the documents a pair names are split, each at most once
        sentence_counts: dict[int, int] = {}
        pairs = set()
        for pair in raw:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            ):
                raise ValueError(f"gold_sentence_ids entry {pair!r} is not an [int, int] pair")
            d, s = pair
            if not 0 <= d < len(documents):
                raise ValueError(f"gold_sentence_ids references document {d} of {len(documents)}")
            if d not in sentence_counts:
                sentence_counts[d] = len(split_sentences(documents[d]))
            if not 0 <= s < sentence_counts[d]:
                raise ValueError(
                    f"gold_sentence_ids references sentence {s} of {sentence_counts[d]} in document {d}"
                )
            pairs.add((d, s))
        ids = frozenset(pairs)

    return QARecord(
        question_id=qid,
        question=question,
        documents=tuple(documents),
        gold_answers=tuple(gold_answers),
        gold_sentence_ids=ids,
    )


def load_records(path: str) -> list[QARecord]:
    """Read and validate a line-delimited corpus file, order preserved; one with no records is an error."""
    lines = parse_jsonl(read_lines(path, "corpus"), path)
    records = read_keyed(lines, path, "question_id", _validate_record)
    if not records:
        raise StorageError(f"corpus {path} has no records")
    return list(records.values())


def record_to_json(record: QARecord) -> str:
    """Canonical single-line form: sorted keys, explicit sentence id order."""
    doc = {
        "question_id": record.question_id,
        "question": record.question,
        "documents": list(record.documents),
        "gold_answers": list(record.gold_answers),
    }
    if record.gold_sentence_ids is not None:
        doc["gold_sentence_ids"] = [list(p) for p in sorted(record.gold_sentence_ids)]
    return json_line(doc)


def save_records(records: list[QARecord], path: str) -> None:
    write_lines(path, (record_to_json(r) + "\n" for r in records), "corpus")
