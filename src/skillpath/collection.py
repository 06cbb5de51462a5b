"""Example collections: the Γ a question's matcher selects from.

freq_index counts example membership, not occurrences: an example whose
strategy uses the same skill three times contributes one to that skill's
frequency. That distinction feeds straight into the uniqueness weight, so
build_collection, the one constructor, derives the index from the
examples. A bundle stores the examples only, and the index is derived
again whenever a stored collection is loaded; the settings a bundle was
generated with live in its config snapshot. A bundle holds no timestamp,
so the same collections write the same bytes; the timestamp an older
bundle holds is one more ignored key.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SkillPathError, StorageError
from .examplegen import ReasoningStrategy, SimilarExample
from .resources import fields, read_json, strings, write_json
from .skills import ReasoningSkill, parse_skill

COLLECTION_VERSION = 2


class ExampleCollection(NamedTuple):
    examples: list[SimilarExample]
    freq_index: dict[ReasoningSkill, int]

    def freq(self, skill: ReasoningSkill) -> int:
        return self.freq_index.get(skill, 0)


def build_collection(examples: list[SimilarExample]) -> ExampleCollection:
    """Assemble a collection and its membership frequency index."""
    if not examples:
        raise ValueError("cannot build a collection from zero examples")
    freq: dict[ReasoningSkill, int] = {}
    for ex in examples:
        for skill in set(ex.strategy.skills):
            freq[skill] = freq.get(skill, 0) + 1
    return ExampleCollection(examples=list(examples), freq_index=freq)


def example_to_record(example: SimilarExample) -> dict:
    return {
        "question": example.question,
        "strategy": {
            "subquestions": list(example.strategy.subquestions),
            "skills": [s.canonical for s in example.strategy.skills],
        },
        "reference_docs": list(example.reference_docs),
        "answer": example.answer,
    }


def example_from_record(doc: dict) -> SimilarExample:
    """A stored example; a field missing or unknown, in it or its strategy, is a ValueError."""
    doc = fields(doc, "example", {"question", "strategy", "reference_docs", "answer"})
    steps = fields(doc["strategy"], "strategy", {"subquestions", "skills"})
    strategy = ReasoningStrategy(
        strings(steps["subquestions"]),
        tuple(parse_skill(s) for s in strings(steps["skills"])),
    )
    return SimilarExample(
        question=doc["question"],
        strategy=strategy,
        reference_docs=strings(doc["reference_docs"]),
        answer=doc["answer"],
    )


def collection_to_record(collection: ExampleCollection) -> dict:
    """The stored form of a collection, as a bundle holds it for each question."""
    return {"examples": [example_to_record(ex) for ex in collection.examples]}


def collection_from_record(doc: dict, source: str) -> ExampleCollection:
    """A stored collection, its freq_index derived from its examples; errors name `source`."""
    try:
        examples = fields(doc, "collection", {"examples"})["examples"]
        return build_collection([example_from_record(d) for d in examples])
    except (AttributeError, LookupError, TypeError, ValueError, SkillPathError) as exc:
        raise StorageError(f"{source}: malformed collection: {exc}") from exc


def persist_bundle(collections: dict[str, ExampleCollection], path: str) -> None:
    """Write a keyed bundle of per-question collections in one file."""
    doc = {
        "version": COLLECTION_VERSION,
        "collections": {
            qid: collection_to_record(c) for qid, c in sorted(collections.items())
        },
    }
    write_json(path, doc, "collection bundle")


def restore_bundle(path: str) -> dict[str, ExampleCollection]:
    """Load a bundle, deriving each collection's freq_index from its examples."""
    doc = read_json(path, "collection bundle")
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != COLLECTION_VERSION:  # true and 1.0 equal 1
        raise StorageError(f"{path}: unsupported collection version {version!r}")
    body = doc.get("collections")
    if not isinstance(body, dict):
        raise StorageError(f"{path}: no collections table")
    return {
        qid: collection_from_record(entry, f"{path}[{qid if qid.isprintable() else repr(qid)}]")
        for qid, entry in body.items()
    }
