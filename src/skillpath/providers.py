"""Completion backends: live HTTP, mock, recording, replay.

Every pipeline stage talks to a Provider through one method, complete().
The recording wrapper captures request and result pairs keyed by a stable
fingerprint, and the replay provider serves them back bit for bit, which
is what makes end-to-end runs reproducible without network access.

The fingerprint covers prompt, temperature, max_output_tokens and an
occurrence index. The occurrence index disambiguates repeated identical
requests (a retry after a failed extraction, say) so record and replay
stay aligned call for call.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

import requests

from .errors import ProviderError, ReplayMiss, StorageError, TransportError
from .resources import read_jsonl, utc_now, write_text
from .textutil import count_ws_tokens

DEFAULT_MAX_OUTPUT_TOKENS = 4096

API_BASE_ENV = "SKILLPATH_API_BASE"
MODEL_ENV = "SKILLPATH_MODEL"
API_KEY_ENV = "SKILLPATH_API_KEY"
PARALLELISM_ENV = "SKILLPATH_PARALLELISM"
MAX_RETRIES_ENV = "SKILLPATH_MAX_RETRIES"
RETRY_BACKOFF_ENV = "SKILLPATH_RETRY_BACKOFF"

TRANSCRIPT_VERSION = 1


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int

    def __post_init__(self):
        if self.total_tokens != self.prompt_tokens + self.completion_tokens:
            raise ValueError("total_tokens must equal prompt plus completion")
        if min(self.prompt_tokens, self.completion_tokens) < 0:
            raise ValueError("token counts must be non-negative")

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


@dataclass(frozen=True)
class CompletionRequest:
    """One prompt for the backend.

    tag is a short stage label ("similarity", "segment", ...) used in error
    messages and transcripts; it is not part of the fingerprint, so a
    relabeled pipeline still replays old transcripts.
    """

    prompt: str
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    temperature: float = 0.0
    tag: str = ""

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be at least 1")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: TokenUsage
    latency_ms: float = 0.0


def fingerprint(prompt: str, temperature: float, max_output_tokens: int, occurrence: int) -> str:
    """Stable identity of one request within a run."""
    payload = json.dumps(
        {
            "prompt": prompt,
            "temperature": temperature,
            "max_output_tokens": max_output_tokens,
            "occurrence": occurrence,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _OccurrenceCounter:
    """Counts how many times each (prompt, temperature, max) has been seen."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, float, int], int] = {}

    def fingerprint(self, request: CompletionRequest) -> str:
        """The request's fingerprint at its next occurrence."""
        key = (request.prompt, request.temperature, request.max_output_tokens)
        with self._lock:
            occ = self._counts.get(key, 0)
            self._counts[key] = occ + 1
        return fingerprint(*key, occ)


def fan_out(fn, items, key, parallelism: int = 1) -> list:
    """[fn(item) for item in items], up to `parallelism` groups at a time.

    Items with equal key(item) form a group and run one after another in
    item order; distinct groups overlap, at most `parallelism` of them at
    once, and at parallelism 1 every group runs on the calling thread.
    Give two items the same key whenever they can send the same request:
    the occurrence index that record and replay fingerprint depends on the
    order of identical requests, which this keeps equal to program order.

    The calling thread is one lane; each further lane is a thread started
    here and joined before fan_out returns, so no thread outlives the call
    and nested fan_outs at parallelism N have at most N * N lanes.

    A group stops at its first failure; the other groups run on. Once
    every started call has finished, the failure first in item order is
    raised, so the requests sent and the error reported depend neither on
    thread timing nor on parallelism.
    """
    items = list(items)
    groups: dict = {}
    for index, item in enumerate(items):
        groups.setdefault(key(item), []).append(index)
    queue = collections.deque(groups.values())
    results: list = [None] * len(items)
    failures: dict[int, Exception] = {}
    escaped: list[BaseException] = []

    def lane() -> None:
        # whole groups off the shared queue until it is empty
        while True:
            try:
                indices = queue.popleft()
            except IndexError:
                return
            for index in indices:
                try:
                    results[index] = fn(items[index])
                except Exception as exc:
                    failures[index] = exc
                    break

    def helper_lane() -> None:
        try:
            lane()
        except BaseException as exc:  # re-raised on the calling thread
            escaped.append(exc)

    helpers = []
    try:
        for _ in range(min(parallelism, len(queue)) - 1):
            helper = threading.Thread(target=helper_lane, name="skillpath-fan-out", daemon=True)
            helper.start()
            helpers.append(helper)
    except RuntimeError:
        pass  # no thread to be had: the calling thread runs what is left
    try:
        lane()
    finally:
        queue.clear()  # after an interrupt, groups not yet begun are dropped
        for helper in helpers:
            helper.join()
    if escaped:
        raise escaped[0]
    if failures:
        raise failures[min(failures)]
    return results


class Provider:
    """Base completion backend.

    complete() is the one entry point every caller uses; subclasses
    implement _complete() and never override complete(), so a wrapper
    around complete() sees every call.
    """

    name = "base"

    def complete(self, request: CompletionRequest) -> CompletionResult:
        return self._complete(request)

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError


class MockProvider(Provider):
    """Offline backend with canned replies and whitespace token accounting.

    reply may be a fixed string, a callable of the request, or a finite
    sequence consumed in order. Running a sequence dry raises
    ProviderError so a misconfigured script fails loudly instead of
    looping.
    """

    name = "mock"

    def __init__(self, reply):
        self._reply = reply
        self._seq_lock = threading.Lock()
        if isinstance(reply, (list, tuple)):
            self._queue = list(reply)
        else:
            self._queue = None

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        if self._queue is not None:
            with self._seq_lock:
                if not self._queue:
                    raise ProviderError("mock provider ran out of scripted replies")
                text = self._queue.pop(0)
        elif callable(self._reply):
            text = self._reply(request)
        else:
            text = self._reply
        usage = TokenUsage.of(count_ws_tokens(request.prompt), count_ws_tokens(text))
        return CompletionResult(text=text, usage=usage, latency_ms=0.0)


@dataclass(frozen=True)
class TranscriptEntry:
    fingerprint: str
    request: CompletionRequest
    result: CompletionResult


@dataclass
class Transcript:
    """A record of completed requests, one fingerprint each."""

    entries: list[TranscriptEntry] = field(default_factory=list)
    provider: str = ""
    created_at: str = ""

    def save(self, path: str) -> None:
        """Write the transcript as line-delimited JSON with a header line."""
        header = {
            "version": TRANSCRIPT_VERSION,
            "provider": self.provider,
            "created_at": self.created_at,
            "entries": len(self.entries),
        }
        docs = [header] + [dataclasses.asdict(e) for e in self.entries]
        text = "".join(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n" for doc in docs)
        write_text(path, text, "transcript")

    @classmethod
    def load(cls, path: str) -> Transcript:
        docs = (doc for _, doc in read_jsonl(path, "transcript"))
        header = next(docs, None)
        if not isinstance(header, dict):
            raise StorageError(f"transcript {path} has no header line")
        entries = []
        seen: set[str] = set()
        try:
            for doc in docs:
                fp = doc["fingerprint"]
                if fp in seen:
                    raise StorageError(f"transcript {path} repeats fingerprint {fp}")
                seen.add(fp)
                res = doc["result"]
                entries.append(
                    TranscriptEntry(
                        fingerprint=fp,
                        request=CompletionRequest(**doc["request"]),
                        result=CompletionResult(
                            text=res["text"],
                            usage=TokenUsage(**res["usage"]),
                            latency_ms=res.get("latency_ms", 0.0),
                        ),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"transcript {path} is malformed: {exc}") from exc
        return cls(
            entries=entries,
            provider=header.get("provider", ""),
            created_at=header.get("created_at", ""),
        )


class RecordingProvider(Provider):
    """Wraps another provider and captures every exchange."""

    name = "recording"

    def __init__(self, inner: Provider):
        self.inner = inner
        self._counter = _OccurrenceCounter()
        self._entries_lock = threading.Lock()
        self._entries: list[TranscriptEntry] = []
        self._created_at = utc_now()

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        fp = self._counter.fingerprint(request)
        result = self.inner.complete(request)
        with self._entries_lock:
            self._entries.append(TranscriptEntry(fp, request, result))
        return result

    @property
    def transcript(self) -> Transcript:
        """The exchanges so far, sorted by fingerprint.

        Calls that overlap finish in any order; sorting makes the saved
        transcript independent of thread timing. Replay looks entries up
        by fingerprint, so the order carries no meaning.
        """
        with self._entries_lock:
            entries = sorted(self._entries, key=lambda e: e.fingerprint)
        return Transcript(entries=entries, provider=self.inner.name, created_at=self._created_at)


class ReplayProvider(Provider):
    """Serves results from a transcript; a request off script is an error."""

    name = "replay"

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        self._table = {e.fingerprint: e.result for e in transcript.entries}
        self._counter = _OccurrenceCounter()

    @classmethod
    def from_file(cls, path: str) -> ReplayProvider:
        return cls(Transcript.load(path))

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        fp = self._counter.fingerprint(request)
        if fp not in self._table:
            raise ReplayMiss(fp, request.tag)
        return self._table[fp]


class LiveProvider(Provider):
    """Talks to a chat-completions style HTTP endpoint.

    Endpoint, model and secret come from arguments or the environment
    (SKILLPATH_API_BASE, SKILLPATH_MODEL, SKILLPATH_API_KEY). Transient
    failures are retried with exponential backoff; exhausting the retries
    raises TransportError.
    """

    name = "live"

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int | None = None,
        backoff: float | None = None,
    ):
        self.base_url = (base_url or os.environ.get(API_BASE_ENV, "")).rstrip("/")
        self.model = model or os.environ.get(MODEL_ENV, "")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        if not self.base_url:
            raise TransportError("no endpoint configured: set " + API_BASE_ENV)
        if not self.model:
            raise TransportError("no model configured: set " + MODEL_ENV)
        self.timeout = timeout
        self.max_retries = _env_number(MAX_RETRIES_ENV, "3", int) if max_retries is None else max_retries
        self.backoff = _env_number(RETRY_BACKOFF_ENV, "1.0", float) if backoff is None else backoff

    def _complete(self, request: CompletionRequest) -> CompletionResult:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            started = time.monotonic()
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = str(exc)
                continue
            elapsed_ms = (time.monotonic() - started) * 1000.0
            if resp.status_code == 200:
                return self._parse(request, resp, elapsed_ms)
            last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
            if resp.status_code not in (429,) and resp.status_code < 500:
                break
        raise TransportError(f"endpoint failed after {self.max_retries + 1} attempts: {last_error}")

    def _parse(self, request: CompletionRequest, resp, elapsed_ms: float) -> CompletionResult:
        try:
            doc = resp.json()
            text = doc["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed endpoint response: {exc}") from exc
        usage_doc = doc.get("usage")
        if usage_doc is None:
            usage_doc = {}
        if not isinstance(usage_doc, dict):
            raise TransportError(f"malformed endpoint usage: {usage_doc!r}")
        counts = (usage_doc.get("prompt_tokens"), usage_doc.get("completion_tokens"))
        if None in counts:
            usage = TokenUsage.of(count_ws_tokens(request.prompt), count_ws_tokens(text))
        elif all(type(count) is int and count >= 0 for count in counts):  # bool is not a count
            usage = TokenUsage.of(*counts)
        else:
            raise TransportError(f"malformed endpoint usage counts: {usage_doc!r}")
        return CompletionResult(text=text, usage=usage, latency_ms=elapsed_ms)


def _env_number(name: str, default: str, kind: type):
    raw = os.environ.get(name, default)
    try:
        return kind(raw)
    except ValueError as exc:
        raise TransportError(f"{name} must be a number, got {raw!r}") from exc
