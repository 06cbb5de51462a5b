"""File access: bundled data files, plus the one text writer and JSONL reader.

The entity pool feeds both the default tagger's gazetteer and random
template fills; the repair-cue list is the versioned configuration consumed
by retrace detection. Both are plain JSON so deployments can ship edited
copies via the override directory.

Whole-file writes go through write_text and JSONL reads through
read_jsonl, so OS failures become StorageError in one place, and every
whole-file output is replaced atomically.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections.abc import Iterator
from functools import lru_cache
from importlib import resources

from .errors import ParseError, StorageError

DATA_DIR_ENV = "SKILLPATH_DATA_DIR"


def _read_bundled(name: str) -> str:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        path = os.path.join(override, name)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    return fh.read()
            except OSError as exc:
                raise StorageError(f"cannot read data override {path}: {exc}") from exc
    return resources.files("skillpath").joinpath("data", name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def load_entity_pool() -> dict[str, list[str]]:
    """Entity candidates per type, e.g. {"place": ["Eiffel Tower", ...]}."""
    try:
        doc = json.loads(_read_bundled("entity_pool.json"))
    except json.JSONDecodeError as exc:
        raise StorageError(f"entity pool is not valid JSON: {exc}") from exc
    return {t: list(names) for t, names in doc["types"].items()}


@lru_cache(maxsize=None)
def load_repair_cues() -> list[str]:
    """Self-correction cue phrases, lowercase, from the versioned cue file."""
    try:
        doc = json.loads(_read_bundled("repair_cues.json"))
    except json.JSONDecodeError as exc:
        raise StorageError(f"repair cue file is not valid JSON: {exc}") from exc
    return [c.casefold() for c in doc["cues"]]


def write_text(path: str, text: str, what: str) -> None:
    """Write a whole UTF-8 file; `what` names it in the error message.

    The text goes to a temporary file next to the target, which then
    replaces the target in one step: a write that fails or is killed
    part-way leaves the previous file as it was. The temporary name is
    unique per process and thread, and a failed write removes it.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {what} {path}: {exc}") from exc


def write_json(path: str, doc: dict, what: str) -> None:
    """Write one JSON document in the package's stable, diffable layout."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n", what)


def read_jsonl(path: str, what: str) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed value) for every non-blank line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"cannot read {what} {path}: {exc}") from exc
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, i, f"invalid JSON: {exc}") from exc
        yield i, doc


def utc_now() -> str:
    """Second-resolution UTC timestamp for file headers."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
