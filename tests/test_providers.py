from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import ssl
import threading
import types

import pytest

from skillpath import __version__, providers
from skillpath.errors import ReplayMiss, StorageError, TransportError, ValidationError
from skillpath.providers import (
    TRANSCRIPT_VERSION,
    CompletionRequest,
    CompletionResult,
    LiveProvider,
    MockProvider,
    RecordingProvider,
    ReplayProvider,
    TokenUsage,
    Transcript,
    fingerprint,
)
from skillpath.resources import json_line

from conftest import replies


def record(provider, requests):
    """Send each request through a RecordingProvider; return its transcript."""
    recorder = RecordingProvider(provider)
    for request in requests:
        recorder.complete(request)
    return recorder.transcript


def replaying(transcript):
    """A ReplayProvider of the transcript's results."""
    return ReplayProvider({e.fingerprint: e.result for e in transcript.entries})


def test_mock_fixed_reply_and_whitespace_accounting():
    provider = MockProvider(lambda request: "Paris")
    result = provider.complete(CompletionRequest("What is the capital of France?"))
    assert result.text == "Paris"
    assert result.usage == TokenUsage.of(6, 1)
    again = provider.complete(CompletionRequest("What is the capital of France?"))
    assert again == result


def test_a_request_is_its_prompt_and_its_tag():
    assert CompletionRequest._fields == ("prompt", "tag")
    assert CompletionRequest("p").tag == ""


# a caller that still passes a sampling setting fails loudly instead of being ignored
@pytest.mark.parametrize("setting", ["max_output_tokens", "temperature"])
def test_a_request_refuses_a_sampling_setting(setting):
    with pytest.raises(TypeError, match=setting):
        CompletionRequest("p", **{setting: 1})


def test_request_rejects_empty_prompt():
    with pytest.raises(ValueError):
        CompletionRequest("")


def test_token_usage_consistency_enforced():
    with pytest.raises(ValueError):
        TokenUsage(2, 2, 5)


def test_fingerprint_distinguishes_occurrences():
    a = fingerprint("p", 0, ())
    b = fingerprint("p", 1, ())
    assert a != b
    assert fingerprint("p", 0, ()) == a
    # a question id that is a prefix of another, and no question, are three scopes
    assert len({fingerprint("p", 0, ("q1",)), fingerprint("p", 0, ("q10",)), a}) == 3


def test_the_fingerprint_bytes_are_pinned_to_the_transcript_version():
    # a saved transcript is keyed by these digests: a change to their bytes
    # strands every transcript of this version, so it must bump the version
    assert TRANSCRIPT_VERSION == 7
    # the scope is the question id, written as json_line writes it: the quote escaped, the é as UTF-8
    settings = '{"occurrence": 1, "scope": ["q\\"\u00e9"]}'.encode("utf-8")
    prompt = "Stra\u00dfe \u00e9t\u00e9?\n\"quoted\"\tend"
    digest = fingerprint(prompt, 1, ('q"\u00e9',))
    assert digest == hashlib.sha256(settings + b"\n" + prompt.encode("utf-8")).hexdigest()
    assert digest == "204de5ff420f04bf2dae6329af96ea12d331a19a400d2f174f4972f76959494c"


def test_a_prompt_that_imitates_a_settings_line_keeps_its_own_identity():
    other = {"occurrence": 1, "scope": ["q0"]}
    # the imitation puts the other request's settings line where a prompt starts
    imitation = fingerprint(json_line(other) + "\nQ?", 0, ())
    assert imitation != fingerprint("Q?", 1, ("q0",))
    assert imitation != fingerprint("Q?", 0, ())


def test_record_and_replay_round_trip(tmp_path):
    requests = [
        CompletionRequest("first prompt"),
        CompletionRequest("second prompt"),
        CompletionRequest("first prompt"),
    ]
    transcript = record(MockProvider(replies("a", "b", "c")), requests)
    assert len(transcript.entries) == 3
    assert len({e.fingerprint for e in transcript.entries}) == 3

    path = tmp_path / "t.jsonl"
    transcript.save(str(path))
    replay = ReplayProvider.from_file(str(path))
    assert replay.complete(CompletionRequest("first prompt")).text == "a"
    assert replay.complete(CompletionRequest("second prompt")).text == "b"
    assert replay.complete(CompletionRequest("first prompt")).text == "c"


def test_the_tag_stays_out_of_the_fingerprint():
    # a relabeled stage still replays, and one prompt under two tags is two occurrences of it
    transcript = record(MockProvider(replies("a", "b")), [CompletionRequest("p", tag="old"), CompletionRequest("p")])
    assert len({e.fingerprint for e in transcript.entries}) == 2
    replay = replaying(transcript)
    assert replay.complete(CompletionRequest("p", tag="new")).text == "a"
    assert replay.complete(CompletionRequest("p", tag="new")).text == "b"


def test_replay_off_script_raises_miss(tmp_path):
    transcript = record(MockProvider(lambda request: "x"), [CompletionRequest("known")])
    replay = replaying(transcript)
    with pytest.raises(ReplayMiss):
        replay.complete(CompletionRequest("unknown"))
    replay2 = replaying(transcript)
    replay2.complete(CompletionRequest("known"))
    with pytest.raises(ReplayMiss):
        # second occurrence was never recorded
        replay2.complete(CompletionRequest("known"))


def test_replay_results_bit_identical(tmp_path):
    recorder = RecordingProvider(MockProvider(lambda request: "the reply text"))
    original = recorder.complete(CompletionRequest("a prompt"))
    path = tmp_path / "t.jsonl"
    recorder.transcript.save(str(path))
    replayed = ReplayProvider.from_file(str(path)).complete(CompletionRequest("a prompt"))
    assert replayed == original


def _reachable(root):
    """Every object reachable from root through the objects' own data, not through classes or modules."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        todo.extend(gc.get_referents(obj))


def test_replay_from_a_file_keeps_results_only(tmp_path):
    document = "A long document sentence. " * 20000
    recorder = RecordingProvider(MockProvider(lambda request: "the reply"))
    recorder.complete(CompletionRequest(f"Extract from: {document}", tag="segment"))
    path = tmp_path / "t.jsonl"
    recorder.transcript.save(str(path))

    replay = ReplayProvider.from_file(str(path))
    assert replay.identity == {}
    assert not hasattr(replay, "transcript")
    reached = list(_reachable(replay))
    assert {type(obj) for obj in reached if isinstance(obj, tuple)} == {CompletionResult, TokenUsage}
    assert not [obj for obj in reached if isinstance(obj, str) and document in obj]
    assert replay.complete(CompletionRequest(f"Extract from: {document}")).text == "the reply"


def test_replay_holds_no_prompt_it_was_sent():
    document = "A long document sentence. " * 2000
    prompts = [f"Extract from {n}: {document}" for n in range(3)]
    # the first prompt again, then the first three inside a question
    requests = [CompletionRequest(prompt) for prompt in [*prompts, prompts[0]]]
    recorder = RecordingProvider(MockProvider(replies("a", "b", "c", "d", "e", "f", "g")))
    for request in requests:
        recorder.complete(request)
    with providers.question_scope("q1"):
        for request in requests[:3]:
            recorder.complete(request)

    replay = replaying(recorder.transcript)
    assert [replay.complete(request).text for request in requests] == ["a", "b", "c", "d"]
    with providers.question_scope("q1"):
        assert [replay.complete(request).text for request in requests[:3]] == ["e", "f", "g"]
    assert not [obj for obj in _reachable(replay) if isinstance(obj, str) and document in obj]


def test_a_transcript_whose_lines_fail_part_way_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    record(MockProvider(lambda request: "x"), [CompletionRequest("p")]).save(str(path))
    previous = path.read_bytes()
    longer = record(MockProvider(lambda request: "y"), [CompletionRequest(prompt) for prompt in "abc"])
    written = []

    def third_line_fails(doc):
        if len(written) == 2:
            raise RuntimeError("the third line cannot be made")
        written.append(doc)
        return json_line(doc)

    monkeypatch.setattr(providers, "json_line", third_line_fails)
    with pytest.raises(RuntimeError):
        longer.save(str(path))
    assert len(written) == 2
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["t.jsonl"]


def test_transcript_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(StorageError):
        Transcript.load(str(path))
    with pytest.raises(StorageError):
        Transcript.load(str(tmp_path / "missing.jsonl"))
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(StorageError):
        Transcript.load(str(path))


def test_transcript_load_rejects_duplicate_fingerprints(tmp_path):
    transcript = record(MockProvider(lambda request: "x"), [CompletionRequest("p")])
    path = tmp_path / "dup.jsonl"
    transcript.save(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n", encoding="utf-8")
    with pytest.raises(StorageError):
        Transcript.load(str(path))


# true and 1.0 equal 1 in Python, but neither is the JSON integer an entry count is
@pytest.mark.parametrize("entries", [True, 1.0], ids=["true", "float"])
def test_transcript_entry_count_must_be_a_json_integer(tmp_path, entries):
    path = tmp_path / "t.jsonl"
    record(MockProvider(lambda request: "x"), [CompletionRequest("p")]).save(str(path))
    header, entry = path.read_text(encoding="utf-8").splitlines()
    path.write_text(json.dumps({**json.loads(header), "entries": entries}) + "\n" + entry + "\n",
                    encoding="utf-8")
    with pytest.raises(StorageError, match=f"counts {entries!r} entries, but 1 follow"):
        Transcript.load(str(path))


def test_live_requires_endpoint_configuration(monkeypatch):
    monkeypatch.delenv("SKILLPATH_API_BASE", raising=False)
    monkeypatch.delenv("SKILLPATH_MODEL", raising=False)
    with pytest.raises(TransportError):
        LiveProvider()


def test_live_unreachable_endpoint_fails_after_retries(monkeypatch):
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "1")
    monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", "0.01")
    provider = LiveProvider()
    with pytest.raises(TransportError, match="after 2 attempt"):
        provider.complete(CompletionRequest("hello"))


@pytest.mark.parametrize("scheme, contexts", [("https", 1), ("http", 0)])
def test_live_builds_one_tls_context_for_all_its_attempts(monkeypatch, scheme, contexts):
    # a closed port refuses the connection before any handshake, so no certificate is needed
    monkeypatch.setenv("SKILLPATH_API_BASE", f"{scheme}://127.0.0.1:9")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "2")
    monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", "0")
    built = []

    def counted(make):
        def wrapper(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]
        return wrapper

    # http.client builds its own through the second when it is given no context
    for name in ("create_default_context", "_create_default_https_context"):
        monkeypatch.setattr(ssl, name, counted(getattr(ssl, name)))
    with pytest.raises(TransportError, match="after 3 attempt"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert len(built) == contexts
    assert all(ctx.verify_mode == ssl.CERT_REQUIRED and ctx.check_hostname for ctx in built)


def ok_reply(content="ok", **usage):
    return 200, {"choices": [{"message": {"content": content}}], "usage": usage}


@pytest.mark.parametrize("key", ["", "secret"])
def test_live_sends_a_json_body_and_its_headers(live_endpoint, monkeypatch, key):
    monkeypatch.setenv("SKILLPATH_API_KEY", key)
    live_endpoint.script(ok_reply("Paris", prompt_tokens=3, completion_tokens=1))
    result = LiveProvider().complete(CompletionRequest("où?", tag="answer"))
    assert (result.text, result.usage) == ("Paris", TokenUsage.of(3, 1))
    [(path, headers, body)] = live_endpoint.received
    assert path == "/v1/chat/completions"
    assert body == (b'{"model": "m", "messages": [{"role": "user", "content": "o\\u00f9?"}], '
                    b'"temperature": 0.0, "max_tokens": 4096}')
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == f"skillpath/{__version__}"
    assert headers.get("Authorization") == (f"Bearer {key}" if key else None)


def test_live_retries_throttling_server_errors_and_broken_replies(live_endpoint, monkeypatch):
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "5")
    live_endpoint.script(
        (429, "slow down"),
        (503, "busy"),
        b"not an HTTP reply\r\n\r\n",
        b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{}",  # cut short
        b"HTTP/1.0 500 Oops\r\nContent-Length: 100\r\n\r\nx",
        ok_reply("fine"),
    )
    assert LiveProvider().complete(CompletionRequest("hello")).text == "fine"
    assert len(live_endpoint.received) == 6


@pytest.mark.parametrize("status", [201, 400, 401, 404])
def test_live_other_statuses_stop_the_retries(live_endpoint, monkeypatch, status):
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "3")
    live_endpoint.script((status, "no"), ok_reply())
    with pytest.raises(TransportError, match=f"after 1 attempt\\(s\\): HTTP {status}: no$"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert len(live_endpoint.received) == 1


def test_live_counts_the_attempts_it_made(live_endpoint, monkeypatch):
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "2")
    live_endpoint.script((503, "busy"))
    with pytest.raises(TransportError, match="after 3 attempt\\(s\\): HTTP 503: busy$"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert len(live_endpoint.received) == 3


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_live_follows_no_redirect(live_endpoint, monkeypatch, status):
    monkeypatch.setenv("SKILLPATH_API_KEY", "secret")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "3")
    live_endpoint.script(
        f"HTTP/1.0 {status} Moved\r\nLocation: /v1/elsewhere\r\nContent-Length: 0\r\n\r\n".encode(),
        ok_reply(),
    )
    with pytest.raises(TransportError, match=f"after 1 attempt\\(s\\): HTTP {status}: "
                                             "redirect to /v1/elsewhere not followed$"):
        LiveProvider().complete(CompletionRequest("hello"))
    # the key went only to the configured endpoint
    assert [path for path, _, _ in live_endpoint.received] == ["/v1/chat/completions"]


def test_live_names_a_location_only_for_a_status_past_2xx(live_endpoint):
    live_endpoint.script(b"HTTP/1.0 201 Created\r\nLocation: /v1/made\r\nContent-Length: 2\r\n\r\nno")
    with pytest.raises(TransportError, match="after 1 attempt\\(s\\): HTTP 201: no$"):
        LiveProvider().complete(CompletionRequest("hello"))


@pytest.mark.parametrize("bypass", [False, True])
def test_live_honours_http_proxy_and_no_proxy(live_endpoint, proxy_endpoint, monkeypatch, bypass):
    for name in ("HTTP_PROXY", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", f"http://{proxy_endpoint.address}")
    if bypass:
        monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert LiveProvider().complete(CompletionRequest("hello")).text == "ok"
    url = os.environ["SKILLPATH_API_BASE"] + "/chat/completions"
    reached, passed_by = (live_endpoint, proxy_endpoint) if bypass else (proxy_endpoint, live_endpoint)
    # a proxy is sent the absolute URI, the endpoint itself only the path
    assert [path for path, _, _ in reached.received] == [url[url.index("/v1"):] if bypass else url]
    assert passed_by.received == []


def test_live_waits_grow_without_building_big_integers(monkeypatch):
    # 2**1024 does not fit a float: the 1025th attempt's wait must not be computed as one
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "1100")
    monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", "0")
    waits = []
    monkeypatch.setattr("skillpath.providers.time.sleep", waits.append)
    with pytest.raises(TransportError, match="after 1101 attempt"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert waits == [0.0] * 1100


@pytest.mark.parametrize(
    "base", ["endpoint.invalid", "ftp://host", "file:///etc/passwd", "http://", "http:///v1",
             "http://:80", " http://host", "http://exa mple/v1", "http://host\t/v1", "http://host/v1?",
             "http://host/v1#", "http://@host/v1"],
)
def test_live_rejects_a_base_url_that_is_not_http(live_endpoint, monkeypatch, base):
    monkeypatch.setenv("SKILLPATH_API_BASE", base)
    with pytest.raises(TransportError, match="^SKILLPATH_API_BASE must be an http"):
        LiveProvider()
    assert live_endpoint.received == []


@pytest.mark.parametrize("base", ["HTTP://127.0.0.1:9/v1", "http://[::1]:9", "https://host.invalid:443/v1/"])
def test_live_accepts_a_plain_http_base_url(monkeypatch, base):
    monkeypatch.setenv("SKILLPATH_API_BASE", base)
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    assert LiveProvider().base_url == base.rstrip("/")


# time.sleep adds a wait to the monotonic clock; the provider allows half of TIMEOUT_MAX
LONGEST_WAIT = threading.TIMEOUT_MAX / 2


@pytest.mark.parametrize(
    "retries, backoff, ok",
    [("1", repr(LONGEST_WAIT), True), ("2", repr(LONGEST_WAIT / 2), True),
     (str(10**18), "0", True), ("0", "1e300", True),
     ("1", repr(math.nextafter(LONGEST_WAIT, math.inf)), False), ("1", "1e20", False),
     ("3", repr(LONGEST_WAIT / 2), False), (str(10**18), "1", False),
     (str(10**18), "5e-324", False)],
)
def test_live_rejects_a_retry_schedule_time_sleep_cannot_keep(live_endpoint, monkeypatch,
                                                              retries, backoff, ok):
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", retries)
    monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", backoff)
    if ok:
        LiveProvider()
    else:
        with pytest.raises(TransportError, match="make a wait longer than"):
            LiveProvider()


def test_live_reads_environment(monkeypatch):
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://example.invalid/v1/")
    monkeypatch.setenv("SKILLPATH_MODEL", "test-model")
    monkeypatch.setenv("SKILLPATH_API_KEY", "secret")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "2")
    monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", "0")
    provider = LiveProvider()
    assert provider.base_url == "http://example.invalid/v1"
    assert provider.model == "test-model"
    assert provider.api_key == "secret"
    assert (provider.max_retries, provider.backoff) == (2, 0.0)


@pytest.mark.parametrize(
    "name, value",
    [("SKILLPATH_MAX_RETRIES", "-1"), ("SKILLPATH_MAX_RETRIES", "1.5"),
     ("SKILLPATH_RETRY_BACKOFF", "-1"), ("SKILLPATH_RETRY_BACKOFF", "nan"),
     ("SKILLPATH_RETRY_BACKOFF", "inf"), ("SKILLPATH_RETRY_BACKOFF", "soon")],
)
def test_live_rejects_retry_settings_out_of_range(live_endpoint, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(TransportError, match=f"^{name} must be "):
        LiveProvider()


@pytest.mark.parametrize(
    "usage",
    [
        {"prompt_tokens": "n/a", "completion_tokens": 1},
        {"prompt_tokens": 3, "completion_tokens": -1},
        {"prompt_tokens": [3], "completion_tokens": 1},
        {"prompt_tokens": 3.7, "completion_tokens": 1},
        {"prompt_tokens": 3, "completion_tokens": True},
        "n/a",
        [1],
    ],
)
def test_live_bad_usage_counts_raise_transport_error(live_endpoint, usage):
    live_endpoint.script((200, {"choices": [{"message": {"content": "ok"}}], "usage": usage}))
    with pytest.raises(TransportError, match="^malformed endpoint response"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert len(live_endpoint.received) == 1


@pytest.mark.parametrize(
    "counts",
    [(2.0, 1, 3.0), (True, 0, True), ("2", 1, "21"), (2, -1, 1), (None, 1, 1)],
    ids=["float", "bool", "text", "negative", "none"],
)
def test_token_counts_are_non_negative_integers(counts):
    with pytest.raises(ValueError):
        TokenUsage(*counts)


@pytest.mark.parametrize(
    "fields",
    [
        {"text": 5},
        {"text": None},
        {"usage": {"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2}},
        {"latency_ms": "fast"},
        {"latency_ms": True},
        {"latency_ms": -1.0},
    ],
    ids=["text-number", "text-none", "usage-dict", "latency-text", "latency-bool",
         "latency-negative"],
)
def test_completion_result_checks_its_fields(fields):
    good = {"text": "ok", "usage": TokenUsage.of(1, 1), "latency_ms": 0}
    CompletionResult(**good)
    with pytest.raises(ValueError):
        CompletionResult(**{**good, **fields})


@pytest.mark.parametrize(
    "fields",
    [
        {"prompt": ""},
        {"prompt": 5},
        {"prompt": ["x"]},
        {"tag": {}},
        {"tag": None},
    ],
    ids=["prompt-empty", "prompt-number", "prompt-list", "tag-object", "tag-none"],
)
def test_completion_request_checks_its_fields(fields):
    good = {"prompt": "p", "tag": ""}
    CompletionRequest(**good)
    with pytest.raises(ValueError):
        CompletionRequest(**{**good, **fields})


# line 3 is the second entry with its field `key` (in `part`, or at the top level) set to `value`;
# with no key, line 3 repeats line 2
@pytest.mark.parametrize(
    "part, key, value, message",
    [
        (None, None, None, "repeats fingerprint"),
        (None, "fingerprint", 5, "fingerprint must be a string"),
        ("result", "latency_ms", "slow", "latency_ms must be"),
        (None, "question", 5, "question must be a string"),
        (None, "question", ["x"], "question must be a string"),
        (None, "tag", {}, "tag must be a string"),
        # an entry written by a version that still kept its request, or sampling settings
        (None, "request", {"prompt": "p", "tag": ""}, "unknown field 'request'"),
        (None, "max_output_tokens", 4096, "max_output_tokens"),
        (None, "temperature", 0.0, "temperature"),
    ],
    ids=["repeated-fingerprint", "fingerprint-number", "latency-text", "question-number", "question-list",
         "tag-object", "stale-request", "stale-max-output-tokens", "stale-temperature"],
)
def test_transcript_entry_errors_name_their_line(tmp_path, part, key, value, message):
    transcript = record(MockProvider(lambda request: "x"), [CompletionRequest("p"), CompletionRequest("q")])
    path = tmp_path / "t.jsonl"
    transcript.save(str(path))
    header, first, second = path.read_text(encoding="utf-8").splitlines()

    changed = json.loads(first if key is None else second)
    if key is not None:
        (changed if part is None else changed[part])[key] = value
    path.write_text("\n".join([header, first, json.dumps(changed)]) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: .*{message}") as raised:
        Transcript.load(str(path))
    assert raised.value.line == 3


@pytest.mark.parametrize(
    "doc",
    [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": None}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": 1}},
        {"choices": [{"message": {"content": 5}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": 1}},
        {"choices": [{"message": {"content": "Paris \ud800"}}],
         "usage": {"prompt_tokens": 3, "completion_tokens": 2}},
    ],
    ids=["null-content", "null-content-with-usage", "number-content", "lone-surrogate"],
)
def test_live_reply_that_makes_no_result_raises_transport_error(live_endpoint, doc):
    live_endpoint.script((200, doc))
    with pytest.raises(TransportError, match="^malformed endpoint response"):
        LiveProvider().complete(CompletionRequest("hello"))
    assert len(live_endpoint.received) == 1
