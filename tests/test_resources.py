from __future__ import annotations

import builtins
import errno
import os

import pytest

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
