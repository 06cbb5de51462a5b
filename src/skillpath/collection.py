"""Example collections: the Γ a question's matcher selects from.

freq_index counts example membership, not occurrences: an example whose
strategy uses the same skill three times contributes one to that skill's
frequency. That distinction feeds straight into the uniqueness weight, so
it is enforced here and re-verified whenever a stored collection is
loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SkillPathError, StorageError
from .examplegen import ConstructionMode, ReasoningStrategy, SimilarExample
from .resources import read_json, strings, utc_now, write_json
from .skills import ReasoningSkill, parse_skill

COLLECTION_VERSION = 1


@dataclass
class ExampleCollection:
    examples: list[SimilarExample]
    freq_index: dict[ReasoningSkill, int] = field(default_factory=dict)

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
        "construction_mode": example.construction_mode.value,
    }


def _count(value) -> int:
    """A stored count; only a JSON integer is one, not a float or a bool."""
    if type(value) is not int:
        raise ValueError(f"expected an integer count, got {value!r}")
    return value


def example_from_record(doc: dict) -> SimilarExample:
    strategy = ReasoningStrategy(
        strings(doc["strategy"]["subquestions"]),
        tuple(parse_skill(s) for s in strings(doc["strategy"]["skills"])),
    )
    return SimilarExample(
        question=doc["question"],
        strategy=strategy,
        reference_docs=strings(doc["reference_docs"]),
        answer=doc["answer"],
        construction_mode=ConstructionMode(doc["construction_mode"]),
    )


def collection_to_record(collection: ExampleCollection) -> dict:
    """The stored form of a collection, as a bundle holds it for each question."""
    return {
        "n": len(collection.examples),
        "freq_index": {s.canonical: f for s, f in sorted(collection.freq_index.items())},
        "examples": [example_to_record(ex) for ex in collection.examples],
    }


def collection_from_record(doc: dict, source: str) -> ExampleCollection:
    """A stored collection, its n and freq_index checked; errors name `source`."""
    try:
        examples = [example_from_record(d) for d in doc["examples"]]
        stored_n = _count(doc["n"])
        stored_freq = {parse_skill(k): _count(v) for k, v in doc["freq_index"].items()}
    except (AttributeError, LookupError, TypeError, ValueError, SkillPathError) as exc:
        raise StorageError(f"{source}: malformed collection: {exc}") from exc
    if not examples:
        raise StorageError(f"{source}: collection holds zero examples")
    rebuilt = build_collection(examples)
    if stored_n != len(examples):
        raise StorageError(f"{source}: stored n={stored_n} but found {len(examples)} examples")
    if stored_freq != rebuilt.freq_index:
        raise StorageError(f"{source}: stored freq_index disagrees with examples")
    return rebuilt


def persist_bundle(
    collections: dict[str, ExampleCollection],
    path: str,
    construction_mode: str | None = None,
    delta: int | None = None,
    created_at: str | None = None,
) -> None:
    """Write a keyed bundle of per-question collections in one file."""
    doc = {
        "version": COLLECTION_VERSION,
        "created_at": created_at or utc_now(),
        "construction_mode": construction_mode,
        "delta": delta,
        "collections": {
            qid: collection_to_record(c) for qid, c in sorted(collections.items())
        },
    }
    write_json(path, doc, "collection bundle")


def restore_bundle(path: str) -> dict[str, ExampleCollection]:
    """Load a bundle, re-deriving and checking each collection's n and freq_index."""
    doc = read_json(path, "collection bundle")
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != COLLECTION_VERSION:  # true and 1.0 equal 1
        raise StorageError(f"{path}: unsupported collection version {version!r}")
    body = doc.get("collections")
    if not isinstance(body, dict):
        raise StorageError(f"{path}: no collections table")
    return {
        qid: collection_from_record(entry, f"{path}[{qid}]") for qid, entry in body.items()
    }
