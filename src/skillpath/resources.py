"""File access: bundled data files and prompt templates, plus the one file reader and writer.

The entity pool feeds both the default tagger's gazetteer and random
template fills; the repair-cue list is the versioned configuration consumed
by retrace detection. Both are plain JSON so deployments can ship edited
copies via the override directory. Prompt templates are plain text with
$name slots, overridable the same way; rendering is strict, so a template
that names a slot its caller does not supply, holds a $ that starts no
slot, or renders to nothing is a StorageError naming the template.

Every input file is opened and decoded here: by read_lines, a line at a
time with its line end, for parse_jsonl, or whole by read_text for
read_json and the override files. Every whole-file write goes through
write_lines, a line at a time, and a journal line is added by append_line:
an OS or decoding failure becomes a StorageError in one place, invalid JSON
or a string holding a lone surrogate a ValidationError naming path:line, an
object that repeats a key one naming the key, and every whole-file output
is replaced atomically. read_keyed judges the lines of the corpus, run
logs, transcripts and journals by one contract.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import string
import time
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from importlib import resources

from .errors import StorageError, ValidationError

DATA_DIR_ENV = "SKILLPATH_DATA_DIR"
PROMPT_DIR_ENV = "SKILLPATH_PROMPT_DIR"

# a \u escape of a UTF-16 surrogate, D800-DFFF
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# a JSON string literal; scanned from the start of a line of valid JSON, the
# matches are its strings, as a JSON string holds no raw line feed
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def read_bundled(folder: str, name: str, override_env: str, what: str) -> str:
    """The package file <folder>/<name>, or its copy in an override directory.

    A file of that name in the directory that the environment variable
    override_env names wins; `what` names the file kind in the error
    message.
    """
    override = os.environ.get(override_env)
    if override:
        path = os.path.join(override, name)
        if os.path.exists(path):
            return read_text(path, f"{what} override")
    return resources.files("skillpath").joinpath(folder, name).read_text(encoding="utf-8")


def strings(value) -> tuple[str, ...]:
    """A stored list of strings; a string or any other value is a ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def fields(doc, what: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    """doc, an object `what` with every required field and no other field but the optional ones."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    stray = (doc.keys() ^ required) - optional  # each field missing or unknown
    if stray:
        field = min(stray)
        raise ValueError(f"{'missing' if field in required else 'unknown'} field {field!r}")
    return doc


def _load_data(name: str, convert):
    """convert(document) of data file `name`; invalid JSON or a wrong shape is a StorageError."""
    try:
        return convert(_loads(read_bundled("data", name, DATA_DIR_ENV, "data"), name))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise StorageError(f"data file {name} is malformed: {exc!r}") from exc


@lru_cache(maxsize=None)
def load_entity_pool() -> dict[str, tuple[str, ...]]:
    """Entity candidates per type, e.g. {"place": ("Eiffel Tower", ...)}."""
    return _load_data(
        "entity_pool.json", lambda doc: {t: strings(names) for t, names in doc["types"].items()}
    )


@lru_cache(maxsize=None)
def load_repair_cues() -> list[str]:
    """Self-correction cue phrases, lowercase, from the versioned cue file."""
    return _load_data("repair_cues.json", lambda doc: [c.casefold() for c in strings(doc["cues"])])


@lru_cache(maxsize=None)
def load_prompt(name: str) -> str:
    """Raw template text for prompts/<name>.txt, honoring the override dir."""
    try:
        return read_bundled("prompts", f"{name}.txt", PROMPT_DIR_ENV, "prompt")
    except OSError as exc:
        raise StorageError(f"no prompt template named {name!r}") from exc


def render_prompt(name: str, **slots: str) -> str:
    """Template <name> with its $slots filled; a template fault is a StorageError."""
    try:
        prompt = string.Template(load_prompt(name)).substitute(slots)
    except KeyError as exc:
        raise StorageError(f"prompt template {name}.txt names ${exc.args[0]}, which is not supplied") from exc
    except ValueError as exc:  # a $ that starts no slot
        raise StorageError(f"prompt template {name}.txt is malformed: {exc}") from exc
    if not prompt:
        raise StorageError(f"prompt template {name}.txt renders to an empty prompt")
    return prompt


def write_lines(path: str, lines: Iterable[str], what: str) -> None:
    """Write a whole UTF-8 file from lines that hold their own line ends; `what` names it in errors.

    The lines go one at a time to a temporary file next to the target, which
    then replaces the target in one step: a write that fails, is killed or
    whose lines raise part-way leaves the previous file as it was. A failed
    write removes its temporary file, <path>.tmp; the next write replaces
    the one a killed write left.
    """
    tmp = path + ".tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for line in lines:
                    fh.write(line)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {what} {path}: {exc}") from exc


def append_line(path: str, line: str, what: str) -> None:
    """Append one line, which holds its own line end, to the UTF-8 file at path, and close it again."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
    except OSError as exc:
        raise StorageError(f"cannot append to {what} {path}: {exc}") from exc


def write_text(path: str, text: str, what: str) -> None:
    """Write a whole UTF-8 file through write_lines."""
    write_lines(path, (text,), what)


def check_writable(path: str, what: str) -> None:
    """Make and remove write_lines's temporary file for path, so a path it cannot write fails now.

    A directory fails too: the temporary file could not replace it.
    """
    if os.path.isdir(path):
        raise StorageError(f"cannot write {what} {path}: it is a directory")
    tmp = path + ".tmp"
    try:
        open(tmp, "w").close()
        os.remove(tmp)
    except OSError as exc:
        raise StorageError(f"cannot write {what} {path}: {exc}") from exc


def write_json(path: str, doc: dict, what: str) -> None:
    """Write one JSON document in the package's stable, diffable layout."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n", what)


def read_text(path: str, what: str) -> str:
    """The whole UTF-8 file at path; `what` names it in the error message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"cannot read {what} {path}: {exc}") from exc


def read_lines(path: str, what: str) -> Iterator[str]:
    """The lines of the UTF-8 file at path, one at a time, each with its \\n; only a last line can lack one.

    Decoded as by read_text, so \\r\\n and a bare \\r end a line too, read
    as \\n; a failure part-way raises after the lines before it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str, what: str):
    """The one JSON document in the file at path."""
    return _loads(read_text(path, what), path)


def parse_jsonl(lines: Iterable[str], path: str) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed value) for every non-blank one of the lines read from path."""
    for i, line in enumerate(lines, start=1):
        if line.strip():
            # without its \n, so an error at the end of the line names the column of that end
            yield i, _loads(line.rstrip("\n"), path, i)


class _RepeatedKey(Exception):
    """The key a JSON object repeats."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise _RepeatedKey(next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i])))
    return doc


# one decoder for every read: json.loads with a hook would build a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _loads(text: str, path: str, line: int | None = None):
    """The JSON value of text read from path, which is line `line` of it for a line-delimited file.

    Invalid JSON, an integer past CPython's digit limit, a lone surrogate
    and an object that repeats a key, whose last value would otherwise win
    silently, are each a ValidationError.
    """
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(path, line or exc.lineno, f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # the digit limit, which names no position
        raise ValidationError(path, line, f"unreadable JSON: {exc}") from exc
    except _RepeatedKey as exc:
        raise ValidationError(path, line, f"an object repeats the key {exc.args[0]!r}") from None
    _refuse_lone_surrogates(text, path, line or 1)
    return doc


def read_keyed(lines: Iterable[tuple[int, object]], path: str, key: str, convert: Callable) -> dict:
    """{doc[key]: convert(doc)} for the (line number, doc) pairs of parse_jsonl, in line order.

    convert checks a line's object, its key field too, and builds its value.
    A line is a ValidationError naming path:line if it is not a JSON object,
    if convert raises KeyError (a missing field) or another LookupError,
    TypeError or ValueError (its text), or if it repeats an earlier key.
    """
    values = {}
    for line, doc in lines:
        try:
            if not isinstance(doc, dict):
                raise ValueError("line is not a JSON object")
            value = convert(doc)
            if doc[key] in values:
                raise ValueError(f"repeats {key} {doc[key]!r}")
        except KeyError as exc:
            raise ValidationError(path, line, f"missing field {exc}") from exc
        except (LookupError, TypeError, ValueError) as exc:
            raise ValidationError(path, line, str(exc)) from exc
        values[doc[key]] = value
    return values


def _refuse_lone_surrogates(text: str, path: str, first_line: int = 1) -> None:
    """A ValidationError naming path:line if a string of valid JSON text holds a lone surrogate.

    UTF-8 cannot encode one, so it would fail the first write or hash of
    the text. Files are decoded strictly, so only a \\u escape makes one:
    text without a surrogate escape passes after one scan.
    """
    if not _SURROGATE_ESCAPE.search(text):
        return
    for offset, line in enumerate(text.split("\n")):
        for literal in _JSON_STRING.findall(line):
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError as exc:
                detail = f"lone surrogate in the string {literal[:80]}"
                raise ValidationError(path, first_line + offset, detail) from exc


def json_line(doc) -> str:
    """One JSON Lines line, without its newline: sorted keys, text as written."""
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def utc_now() -> str:
    """Second-resolution UTC timestamp for file headers."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
