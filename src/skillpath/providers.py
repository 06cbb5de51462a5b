"""Completion backends: live HTTP, mock, and one reply store by fingerprint; question scopes and transcripts.

Every pipeline stage talks to a Provider through one method, complete().
ReplayProvider, the one store of results keyed by a stable fingerprint,
serves a transcript's back bit for bit, which makes end-to-end runs
reproducible without network access. With an inner backend it asks it on
a miss and keeps the exchange: in a transcript (RecordingProvider), or as
an entry line in a live run's journal (JournalProvider), so a rerun sends
only the requests the journal lacks. Both files are one format, read by
one reader (_read_replies): a header line {"version", "identity"}, to
which a finished transcript adds its entry count, then one line per reply,
{"fingerprint", "question", "tag", "result"}. No line holds a prompt or a
timestamp, so the same exchanges write the same bytes, and replay keeps
only the results.

A request is a prompt and a stage tag; the fingerprint covers the
prompt, a scope and an occurrence index. The scope is the question a
call is made for (question_scope), and a question makes its calls one
after another on one thread, so the occurrence index numbers repeated
identical prompts (a retry after a failed extraction, say) in program
order. A recording therefore replays any subset of its questions, in
any order, at any parallelism. Nothing here starts a thread; the CLI
schedules the questions (cli._run_questions).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import logging
import math
import os
import sys
import threading
import time
from collections.abc import Callable, Iterable
from typing import NamedTuple

from . import __version__
from .errors import ReplayMiss, SkillPathError, StorageError, TransportError
from .resources import append_line, fields, json_line, parse_jsonl, read_keyed, read_lines, write_lines
from .textutil import count_ws_tokens

API_BASE_ENV = "SKILLPATH_API_BASE"
MODEL_ENV = "SKILLPATH_MODEL"
API_KEY_ENV = "SKILLPATH_API_KEY"
MAX_RETRIES_ENV = "SKILLPATH_MAX_RETRIES"
RETRY_BACKOFF_ENV = "SKILLPATH_RETRY_BACKOFF"
LIVE_TIMEOUT_S = 60.0
# every live request is sent with these sampling settings
LIVE_TEMPERATURE = 0.0
LIVE_MAX_TOKENS = 4096

TRANSCRIPT_VERSION = 7

log = logging.getLogger(__name__)

# (question id,) inside question_scope, () outside any question
_scope: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar("skillpath_scope", default=())


class _TokenUsage(NamedTuple):
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int


class TokenUsage(_TokenUsage):
    """Token counts; every count read from a reply or a file is checked here."""

    __slots__ = ()

    def __new__(cls, prompt_tokens: int, completion_tokens: int, total_tokens: int):
        counts = (prompt_tokens, completion_tokens, total_tokens)
        if not all(type(count) is int for count in counts):  # a bool is not a count
            raise ValueError(f"token counts must be integers, got {counts!r}")
        if min(counts) < 0:
            raise ValueError(f"token counts must be non-negative, got {counts!r}")
        if total_tokens != prompt_tokens + completion_tokens:
            raise ValueError(f"total_tokens must equal prompt plus completion, got {counts!r}")
        return super().__new__(cls, *counts)

    @classmethod
    def of(cls, prompt_tokens: int, completion_tokens: int) -> TokenUsage:
        return cls(prompt_tokens, completion_tokens, prompt_tokens + completion_tokens)

    @classmethod
    def zero(cls) -> TokenUsage:
        return cls(0, 0, 0)

    def __add__(self, other: TokenUsage) -> TokenUsage:
        return TokenUsage.of(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )


class _CompletionRequest(NamedTuple):
    prompt: str
    tag: str = ""


class CompletionRequest(_CompletionRequest):
    """One prompt for the backend.

    tag is a short stage label ("similarity", "segment", ...) used in error
    messages and transcripts; it is not part of the fingerprint, so a
    relabeled pipeline still replays old transcripts.
    """

    __slots__ = ()

    def __new__(cls, prompt: str, tag: str = ""):
        if not isinstance(prompt, str) or not prompt:
            raise ValueError(f"prompt must be a non-empty string, got {prompt!r}")
        if not isinstance(tag, str):
            raise ValueError(f"tag must be a string, got {tag!r}")
        return super().__new__(cls, prompt, tag)


class _CompletionResult(NamedTuple):
    text: str
    usage: TokenUsage
    latency_ms: float = 0.0


class CompletionResult(_CompletionResult):
    __slots__ = ()

    def __new__(cls, text: str, usage: TokenUsage, latency_ms: float = 0.0):
        if not isinstance(text, str):
            raise ValueError(f"reply text must be a string, got {text!r}")
        if not isinstance(usage, TokenUsage):
            raise ValueError(f"usage must be a TokenUsage, got {usage!r}")
        # inf, nan and ints past the largest float fail the range check
        finite = isinstance(latency_ms, (int, float)) and 0 <= latency_ms <= sys.float_info.max
        if isinstance(latency_ms, bool) or not finite:
            raise ValueError(f"latency_ms must be a finite non-negative number, got {latency_ms!r}")
        return super().__new__(cls, text, usage, latency_ms)


def _tag_note(request: CompletionRequest) -> str:
    """The " (tag 'x')" that names the stage of the request an error is about; "" if it has no tag."""
    return f" (tag {request.tag!r})" if request.tag else ""


def fingerprint(prompt: str, occurrence: int, scope: tuple[str, ...]) -> str:
    """Stable identity of one request within a run.

    The sha256 of {"occurrence", "scope"} as one JSON line, a line feed,
    then the prompt's UTF-8 bytes. A JSON line holds no raw line feed, so
    the first one marks where the prompt starts.
    """
    import hashlib  # OpenSSL loads only in a run that makes fingerprints: record or replay

    settings = {"occurrence": occurrence, "scope": scope}
    digest = hashlib.sha256(json_line(settings).encode("utf-8") + b"\n")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class _OccurrenceCounter:
    """Counts how many times each prompt has been seen per scope.

    A count is keyed by the fingerprint of the prompt's first occurrence
    in the scope, so the counter holds no prompt.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def fingerprint(self, request: CompletionRequest) -> str:
        """The request's fingerprint at its next occurrence in the current scope."""
        scope = _scope.get()
        first = fingerprint(request.prompt, 0, scope)
        with self._lock:
            occ = self._counts.get(first, 0)
            self._counts[first] = occ + 1
        return first if occ == 0 else fingerprint(request.prompt, occ, scope)


@contextlib.contextmanager
def question_scope(question_id: str):
    """Fingerprint the requests made in the block under (question_id,), then restore the scope."""
    token = _scope.set((question_id,))
    try:
        yield
    finally:
        _scope.reset(token)


class Provider:
    """Base completion backend.

    complete() is the one entry point every caller uses; subclasses
    implement _complete() and never override complete(), so a wrapper
    around complete() sees every call. identity names what, besides the
    provider setting that chose the backend, makes its replies differ: a
    live model's name; callers read it, and never ask which backend they
    hold.
    """

    name = "base"
    identity: dict = {}

    def complete(self, request: CompletionRequest) -> CompletionResult:
        return self._complete(request)

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError


class MockProvider(Provider):
    """Offline backend: reply(request) is the reply text, and tokens are counted at whitespace."""

    name = "mock"

    def __init__(self, reply: Callable[[CompletionRequest], str]):
        self._reply = reply

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        text = self._reply(request)
        usage = TokenUsage.of(count_ws_tokens(request.prompt), count_ws_tokens(text))
        return CompletionResult(text=text, usage=usage, latency_ms=0.0)


class TranscriptEntry(NamedTuple):
    """One stored reply, as a transcript or journal line holds it: no prompt, only what made it."""

    fingerprint: str
    question: str  # the id of the question_scope the request was made in, "" outside any
    tag: str
    result: CompletionResult

    def to_record(self) -> dict:
        """The entry as its line stores it; _entry reads it back."""
        return {**self._asdict(), "result": {**self.result._asdict(), "usage": self.result.usage._asdict()}}


class Transcript:
    """A record of completed requests, one fingerprint each, and the identity of the backend that answered."""

    def __init__(self, entries: list[TranscriptEntry] | None = None, identity: dict | None = None):
        self.entries = [] if entries is None else entries
        self.identity = {} if identity is None else identity

    def save(self, path: str) -> None:
        """Write the transcript as line-delimited JSON with a header line, one line at a time."""
        header = {"version": TRANSCRIPT_VERSION, "identity": self.identity, "entries": len(self.entries)}
        docs = itertools.chain([header], (e.to_record() for e in self.entries))
        write_lines(path, (json_line(doc) + "\n" for doc in docs), "transcript")

    @classmethod
    def load(cls, path: str) -> Transcript:
        """Read a saved transcript; _read_replies judges its lines, and its header must count its entries."""
        header, entries = _read_replies(read_lines(path, "transcript"), path, "transcript")
        counted = header.get("entries")
        if type(counted) is not int or counted != len(entries):
            raise StorageError(f"transcript {path} header counts {counted!r} entries, but {len(entries)} follow")
        return cls(list(entries.values()), header["identity"])


def _read_replies(lines: Iterable[str], path: str, what: str) -> tuple[dict, dict[str, TranscriptEntry]]:
    """(header, {fingerprint: entry}) of the lines of a transcript or journal, `what`, read from path.

    The header line's version must be the JSON integer TRANSCRIPT_VERSION
    and its identity an object, or the file is a StorageError; its other
    keys are the caller's. resources.read_keyed judges the entry lines.
    """
    docs = parse_jsonl(lines, path)
    _, header = next(docs, (0, None))
    if not isinstance(header, dict):
        raise StorageError(f"{what} {path} has no header line")
    version = header.get("version")
    if type(version) is not int or version != TRANSCRIPT_VERSION:
        raise StorageError(f"{what} {path} has version {version!r}, not {TRANSCRIPT_VERSION}")
    if not isinstance(header.get("identity"), dict):
        raise StorageError(f"{what} {path} header's identity must be an object, got {header.get('identity')!r}")
    return header, read_keyed(docs, path, "fingerprint", _entry)


def _entry(doc: dict) -> TranscriptEntry:
    """An entry line, its fields checked as a live reply's are."""
    fields(doc, "entry", {*TranscriptEntry._fields})
    for name in ("fingerprint", "question", "tag"):
        if not isinstance(doc[name], str):
            raise ValueError(f"{name} must be a string, got {doc[name]!r}")
    result = fields(doc["result"], "result", {"text", "usage"}, {"latency_ms"})
    usage = TokenUsage(**fields(result["usage"], "usage", {*TokenUsage._fields}))
    return TranscriptEntry(doc["fingerprint"], doc["question"], doc["tag"],
                           CompletionResult(result["text"], usage, result.get("latency_ms", 0.0)))


class ReplayProvider(Provider):
    """The one store of replies by fingerprint, each served once: replay, recording and the journal.

    On a miss, a store with no inner backend (a replayed transcript) raises ReplayMiss; a
    subclass with an inner asks it and keeps the exchange in its _keep, under the store's lock.
    No entry holds a prompt, and the store keeps only the results.
    """

    name = "replay"
    inner: Provider | None = None

    def __init__(self, results: dict[str, CompletionResult]):
        self._results = results
        self._counter = _OccurrenceCounter()
        self._lock = threading.Lock()

    @staticmethod
    def from_file(path: str) -> ReplayProvider:
        return ReplayProvider({e.fingerprint: e.result for e in Transcript.load(path).entries})

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        fp = self._counter.fingerprint(request)
        stored = self._results.pop(fp, None)  # a fingerprint is asked for once per store
        if stored is not None:
            return stored
        if self.inner is None:
            raise ReplayMiss(f"no transcript entry for request fingerprint {fp}{_tag_note(request)}")
        result, scope = self.inner.complete(request), _scope.get()
        with self._lock:
            self._keep(TranscriptEntry(fp, scope[0] if scope else "", request.tag, result))
        return result


class RecordingProvider(ReplayProvider):
    """Wraps another provider and captures every exchange."""

    name = "recording"

    def __init__(self, inner: Provider):
        super().__init__({})
        self.inner, self.identity = inner, inner.identity
        self._entries: list[TranscriptEntry] = []

    def _keep(self, entry: TranscriptEntry) -> None:
        self._entries.append(entry)

    @property
    def transcript(self) -> Transcript:
        """The exchanges so far, sorted by fingerprint.

        Calls that overlap finish in any order; sorting makes the saved
        transcript independent of thread timing. Replay looks entries up
        by fingerprint, so the order carries no meaning.
        """
        with self._lock:
            entries = sorted(self._entries, key=lambda e: e.fingerprint)
        return Transcript(entries, self.identity)


class JournalProvider(ReplayProvider):
    """Wraps a backend whose calls cost something, and keeps its replies in a journal file.

    The journal is a transcript without the entry count: a header line, {"version", "identity"},
    then an entry line per reply, appended as it arrives; a request the journal holds is answered
    from it, not sent. A journal of another version or identity, or one that cannot be read, is
    ignored with a warning, and a torn last line is dropped; either way the file is rewritten
    before any call.
    """

    name = "journal"

    def __init__(self, inner: Provider, path: str):
        header = {"version": TRANSCRIPT_VERSION, "identity": inner.identity}
        kept, entries = [json_line(header) + "\n"], {}
        if os.path.exists(path):
            try:
                lines = list(read_lines(path, "journal"))
                if lines and not lines[-1].endswith("\n"):
                    log.warning("dropping a torn last line from journal %s", path)
                    lines.pop()
                made_with, read = _read_replies(lines, path, "journal")
                if made_with != header:
                    raise ValueError(f"made with {made_with!r}, not {header!r}")
                entries, kept = read, lines
            except (ValueError, SkillPathError) as exc:
                log.warning("ignoring unreadable journal %s: %s", path, exc)
        write_lines(path, kept, "journal")
        super().__init__({fp: entry.result for fp, entry in entries.items()})
        self.inner, self.identity, self.path = inner, inner.identity, path

    def _keep(self, entry: TranscriptEntry) -> None:
        append_line(self.path, json_line(entry.to_record()) + "\n", "journal")


class LiveProvider(Provider):
    """Talks to a chat-completions style HTTP endpoint.

    Endpoint, model and secret come from the environment only
    (SKILLPATH_API_BASE, SKILLPATH_MODEL, SKILLPATH_API_KEY). Transient
    failures are retried SKILLPATH_MAX_RETRIES times with exponential
    backoff from SKILLPATH_RETRY_BACKOFF seconds; exhausting the retries
    raises TransportError. A redirect is not followed: it fails the call.
    """

    name = "live"

    def __init__(self):
        import ssl  # the HTTP and TLS modules load only when a live provider is built
        import urllib.parse
        import urllib.request

        self.base_url = os.environ.get(API_BASE_ENV, "").rstrip("/")
        self.model = os.environ.get(MODEL_ENV, "")
        self.api_key = os.environ.get(API_KEY_ENV, "")
        if not self.base_url:
            raise TransportError("no endpoint configured: set " + API_BASE_ENV)
        url = urllib.parse.urlsplit(self.base_url)
        try:
            url.port  # a port that is not a number in 0-65535 is a ValueError
        except ValueError:
            url = None
        # urlsplit drops whitespace and an empty query or fragment, so those are looked for as written
        if (url is None or url.scheme not in ("http", "https") or not url.hostname or "@" in url.netloc
                or not self.base_url.isprintable() or any(mark in self.base_url for mark in " ?#")):
            raise TransportError(
                f"{API_BASE_ENV} must be an http(s):// URL with a host and no user, query or fragment,"
                f" got {self.base_url!r}"
            )
        # http.client sends the request line as ASCII (a host is IDNA-encoded) and header values
        # as latin-1, refusing line breaks
        if not url.path.isascii():
            raise TransportError(f"{API_BASE_ENV} must have an ASCII path, got {url.path!r}")
        if not self.api_key.isprintable() or max(self.api_key, default="") > "\xff":
            raise TransportError(f"{API_KEY_ENV} must hold printable latin-1 characters only")
        if not self.model:
            raise TransportError("no model configured: set " + MODEL_ENV)
        self.identity = {"model": self.model}
        self.max_retries = _env_number(MAX_RETRIES_ENV, "3", int)
        self.backoff = _env_number(RETRY_BACKOFF_ENV, "1.0", float)
        # the last wait, backoff * 2**(max_retries - 1), must suit time.sleep, which
        # adds it to the monotonic clock: half of TIMEOUT_MAX leaves room for the clock
        longest = threading.TIMEOUT_MAX / 2
        if self.max_retries and self.backoff > math.ldexp(longest, 1 - self.max_retries):
            raise TransportError(
                f"{MAX_RETRIES_ENV}={self.max_retries} and {RETRY_BACKOFF_ENV}={self.backoff:g}"
                f" make a wait longer than {longest:g} s"
            )

        class EveryStatus(urllib.request.HTTPErrorProcessor):
            """Hands back every reply as it came, 3xx too, so no redirect takes the key elsewhere."""
            def http_response(self, request, response):
                return response
            https_response = http_response

        # one TLS context for all connections, where http.client builds one (reading the CA store) each
        tls = ssl.create_default_context() if url.scheme == "https" else None
        self._opener = urllib.request.build_opener(EveryStatus, urllib.request.HTTPSHandler(context=tls))

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        from http.client import HTTPException
        from urllib.request import Request
        headers = {"Content-Type": "application/json", "User-Agent": f"skillpath/{__version__}"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": LIVE_TEMPERATURE,
            "max_tokens": LIVE_MAX_TOKENS,
        }
        data = json.dumps(payload).encode("utf-8")
        post = Request(f"{self.base_url}/chat/completions", data, headers)
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(math.ldexp(self.backoff, attempt - 1))
            started = time.monotonic()
            try:
                with self._opener.open(post, timeout=LIVE_TIMEOUT_S) as resp:
                    status, body, moved = resp.status, resp.read(), resp.headers.get("Location")
            except (OSError, HTTPException) as exc:
                last_error = str(exc)
                continue
            elapsed_ms = (time.monotonic() - started) * 1000.0
            if status == 200:
                return self._parse(request, body, elapsed_ms)
            detail = " ".join(body.decode("utf-8", "replace")[:200].split())  # the message is one line
            if moved and status >= 300:
                detail = f"redirect to {moved} not followed"
            last_error = f"HTTP {status}: {detail}"
            if status != 429 and status < 500:
                break
        raise TransportError(
            f"endpoint failed after {attempt + 1} attempt(s){_tag_note(request)}: {last_error}"
        )

    def _parse(self, request: CompletionRequest, body: bytes, elapsed_ms: float) -> CompletionResult:
        """The reply as a result; a reply that makes none, or one cut off at the token limit, is a TransportError."""
        try:
            doc = json.loads(body)
            if doc["choices"][0].get("finish_reason") == "length":
                raise TransportError(f"reply cut off at LIVE_MAX_TOKENS={LIVE_MAX_TOKENS} tokens{_tag_note(request)}")
            text = doc["choices"][0]["message"]["content"]
            usage = doc.get("usage")
            if usage is None:
                usage = {}
            counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
            if None in counts:
                counts = (count_ws_tokens(request.prompt), count_ws_tokens(text))
            result = CompletionResult(text=text, usage=TokenUsage.of(*counts), latency_ms=elapsed_ms)
            text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
            return result
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed endpoint response{_tag_note(request)}: {exc}") from exc


def _env_number(name: str, default: str, kind: type):
    """The environment variable as a finite, non-negative int or float."""
    raw = os.environ.get(name, default)
    try:
        value = kind(raw)
        if 0 <= value < float("inf"):  # NaN fails both comparisons
            return value
    except ValueError:
        pass
    raise TransportError(f"{name} must be a non-negative finite number, got {raw!r}")
