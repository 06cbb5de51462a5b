from __future__ import annotations

import json
import re

import pytest

from skillpath.collection import (
    ExampleCollection,
    build_collection,
    example_from_record,
    example_to_record,
    persist_bundle,
    restore_bundle,
)
from skillpath.errors import StorageError, ValidationError
from skillpath.skills import ReasoningSkill

from conftest import make_example


def test_frequency_counts_example_membership_not_occurrences(worked_collection):
    # the third example uses inductive twice but counts once
    assert len(worked_collection.examples) == 3
    assert worked_collection.freq(ReasoningSkill.DEDUCTIVE) == 2
    assert worked_collection.freq(ReasoningSkill.INDUCTIVE) == 1
    assert worked_collection.freq(ReasoningSkill.ANALOGICAL) == 1
    assert worked_collection.freq(ReasoningSkill.ABDUCTIVE) == 0


def test_build_collection_rejects_emptiness():
    with pytest.raises(ValueError, match="^cannot build a collection from zero examples$"):
        build_collection([])


def test_example_record_round_trip():
    example = make_example(
        [ReasoningSkill.CAUSE_EFFECT, ReasoningSkill.CRITICAL_THINKING],
        question="Why did the bridge close?",
        answer="structural repairs",
    )
    record = example_to_record(example)
    assert record["strategy"]["skills"] == ["cause & effect", "critical thinking"]
    assert example_from_record(record) == example


def bundle_doc(tmp_path, collection):
    """Persist a one-question bundle; return its path and parsed body."""
    path = tmp_path / "bundle.json"
    persist_bundle({"q1": collection}, str(path))
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_persist_restore_round_trip(tmp_path):
    collection = build_collection(
        [
            make_example([ReasoningSkill.DEDUCTIVE]),
            make_example([ReasoningSkill.INDUCTIVE, ReasoningSkill.DEDUCTIVE]),
        ]
    )
    path = tmp_path / "c.json"
    persist_bundle({"q1": collection}, str(path))
    assert restore_bundle(str(path)) == {"q1": collection}


def test_a_bundle_stores_its_examples_and_nothing_derived_from_them(tmp_path):
    # n and freq_index follow from the examples; the construction mode is in the config snapshot
    example = make_example([ReasoningSkill.DEDUCTIVE, ReasoningSkill.INDUCTIVE])
    _, body = bundle_doc(tmp_path, build_collection([example, example]))
    assert set(body) == {"version", "collections"}
    assert body["version"] == 2
    assert set(body["collections"]["q1"]) == {"examples"}
    assert [set(stored) for stored in body["collections"]["q1"]["examples"]] == [
        {"question", "strategy", "reference_docs", "answer"}
    ] * 2


def test_a_collection_has_no_default_frequency_index():
    # built directly with a default, it would score every skill as unused
    with pytest.raises(TypeError):
        ExampleCollection([make_example([ReasoningSkill.DEDUCTIVE])])


def test_restore_rejects_a_repeated_key(tmp_path):
    path, body = bundle_doc(tmp_path, build_collection([make_example([ReasoningSkill.DEDUCTIVE])]))
    path.write_text(json.dumps(body)[:-1] + ', "version": 2}', encoding="utf-8")
    where = re.escape(f"{path}: an object repeats the key 'version'")
    with pytest.raises(ValidationError, match=f"^{where}$"):
        restore_bundle(str(path))


def test_restore_rejects_a_huge_integer(tmp_path):
    path, body = bundle_doc(tmp_path, build_collection([make_example([ReasoningSkill.DEDUCTIVE])]))
    path.write_text(json.dumps(body)[:-1] + ', "n": ' + "9" * 5000 + "}", encoding="utf-8")
    where = re.escape(f"{path}: unreadable JSON: Exceeds the limit (4300 digits)")
    with pytest.raises(ValidationError, match=f"^{where}"):
        restore_bundle(str(path))


def test_restore_rejects_unknown_version(tmp_path):
    path, body = bundle_doc(tmp_path, build_collection([make_example([ReasoningSkill.DEDUCTIVE])]))
    body["version"] = 99
    path.write_text(json.dumps(body), encoding="utf-8")
    with pytest.raises(StorageError, match="unsupported collection version 99$"):
        restore_bundle(str(path))


# true and 1.0 equal 1 in Python, but neither is the JSON integer a version is
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_restore_rejects_a_version_that_is_not_a_json_integer(tmp_path, version):
    path, body = bundle_doc(tmp_path, build_collection([make_example([ReasoningSkill.DEDUCTIVE])]))
    body["version"] = version
    path.write_text(json.dumps(body), encoding="utf-8")
    with pytest.raises(StorageError, match=f"unsupported collection version {version!r}$"):
        restore_bundle(str(path))


def test_restore_rejects_malformed_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:1: invalid JSON: "):
        restore_bundle(str(path))


def test_bundle_round_trip_preserves_keys(tmp_path):
    bundle = {
        "q2": build_collection([make_example([ReasoningSkill.INDUCTIVE])]),
        "q1": build_collection(
            [
                make_example([ReasoningSkill.DEDUCTIVE]),
                make_example([ReasoningSkill.ANALOGICAL]),
            ]
        ),
    }
    path = tmp_path / "bundle.json"
    persist_bundle(bundle, str(path))
    restored = restore_bundle(str(path))
    assert set(restored) == {"q1", "q2"}
    assert restored["q1"] == bundle["q1"]
    assert restored["q2"] == bundle["q2"]

    body = json.loads(path.read_text(encoding="utf-8"))
    assert list(body["collections"].keys()) == ["q1", "q2"]
