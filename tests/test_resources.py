from __future__ import annotations

import builtins
import errno
import json
import os
from importlib.resources import files

import pytest

import skillpath.prompts as prompts
import skillpath.resources as resources
from skillpath.errors import StorageError
from skillpath.resources import write_text


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


@pytest.fixture
def uncached_loaders():
    """Clear the cached file loaders before and after, so each test reads its files."""
    loaders = (resources.load_entity_pool, resources.load_repair_cues, prompts.load_prompt)
    for loader in loaders:
        loader.cache_clear()
    yield
    for loader in loaders:
        loader.cache_clear()


def test_data_override_wins_and_a_file_it_lacks_is_read_from_the_package(
    tmp_path, monkeypatch, uncached_loaders
):
    (tmp_path / "entity_pool.json").write_text(
        json.dumps({"types": {"place": ["Atlantis"]}}), encoding="utf-8"
    )
    monkeypatch.setenv(resources.DATA_DIR_ENV, str(tmp_path))
    assert resources.load_entity_pool() == {"place": ["Atlantis"]}
    bundled = files("skillpath").joinpath("data", "repair_cues.json").read_text(encoding="utf-8")
    assert resources.load_repair_cues() == [c.casefold() for c in json.loads(bundled)["cues"]]


def test_prompt_override_wins_and_a_file_it_lacks_is_read_from_the_package(
    tmp_path, monkeypatch, uncached_loaders
):
    (tmp_path / "segment_extraction.txt").write_text("Edited $document", encoding="utf-8")
    monkeypatch.setenv(prompts.PROMPT_DIR_ENV, str(tmp_path))
    assert prompts.load_prompt("segment_extraction") == "Edited $document"
    bundled = files("skillpath").joinpath("prompts", "guided_answer.txt").read_text(encoding="utf-8")
    assert prompts.load_prompt("guided_answer") == bundled
