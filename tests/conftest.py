from __future__ import annotations

import contextlib
import http.server
import json
import os
import threading

import pytest
from hypothesis import strategies as st

from skillpath import canned, resources
from skillpath.collection import build_collection
from skillpath.examplegen import ReasoningStrategy, SimilarExample
from skillpath.providers import CompletionRequest
from skillpath.skills import ReasoningSkill

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# characters where a byte-level or punctuation-first rewrite could diverge:
# case mappings that change length or leave ASCII (İ, the Kelvin sign),
# whitespace that is not a newline, lone surrogates, and the quotes and
# brackets the boundary rule looks at
TRICKY = st.sampled_from(
    list("aZz09 .?!\"')(\n\t\r\x0b\x0c\x1c") + ["\x85", "\u2028", "\u00a0", "\u0130", "\u212a",
                                               "\u00df", "\ud800", "\udfff", "\n\n\n"]
)


def make_example(skills, question="What is the answer?", answer="the answer"):
    """A structurally valid example whose only interesting part is its skills."""
    n = len(skills)
    return SimilarExample(
        question=question,
        strategy=ReasoningStrategy(
            tuple(f"step {i + 1}" for i in range(n)), tuple(skills)
        ),
        reference_docs=tuple(f"reference {i + 1}" for i in range(n)),
        answer=answer,
    )


def replies(*texts):
    """A MockProvider reply function that answers with texts, one a call, in order."""
    queue = list(texts)
    return lambda request: queue.pop(0)


@pytest.fixture
def worked_collection():
    """Three examples: [Ded], [Ded, Ana], [Ind, Ind]."""
    S = ReasoningSkill
    return build_collection(
        [
            make_example([S.DEDUCTIVE]),
            make_example([S.DEDUCTIVE, S.ANALOGICAL]),
            make_example([S.INDUCTIVE, S.INDUCTIVE]),
        ]
    )


@pytest.fixture
def uncached_loaders():
    """Clear the cached file loaders before and after, so each test reads its files."""
    loaders = (resources.load_entity_pool, resources.load_repair_cues, resources.load_prompt)
    for loader in loaders:
        loader.cache_clear()
    yield
    for loader in loaders:
        loader.cache_clear()


@pytest.fixture
def fixtures_dir():
    return FIXTURES


class LiveEndpoint:
    """What a local chat-completions endpoint serves, and what it was sent.

    Each reply is (status, body), a dict body sent as JSON and a str as
    text, or raw bytes written to the socket in place of a whole reply,
    to break the HTTP exchange. Replies go out in order, the last one
    for every later request, unless `reply` is set: then each request
    gets reply(request body). `received` holds (path, headers, body) of
    each request, in the order they came.
    """

    def __init__(self):
        self.replies = [(200, {"choices": [{"message": {"content": "ok"}}]})]
        self.reply = None
        self.received = []
        self._lock = threading.Lock()

    def script(self, *replies):
        self.replies = list(replies)

    def take(self, path, headers, body):
        """Record one request; the reply it gets."""
        with self._lock:
            self.received.append((path, headers, body))
            if self.reply is None:
                return self.replies[min(len(self.received), len(self.replies)) - 1]
        return self.reply(body)


# prompt template -> the stage tag of the requests made from it
STAGES = {"entity_substitution": "substitution", "template_variation": "variation",
          "similarity_scoring": "similarity", "strategy_generation": "strategy",
          "reference_document": "reference", "segment_extraction": "segment", "guided_answer": "answer"}


def stage_of(prompt):
    """The stage tag of a pipeline prompt, told by the fixed text that starts its template."""
    (tag,) = [tag for name, tag in STAGES.items()
              if prompt.startswith(resources.load_prompt(name).partition("$")[0])]
    return tag


def canned_completion(body):
    """An endpoint's reply to a request body as the mock answers its prompt: canned_reply, and no usage."""
    prompt = json.loads(body)["messages"][0]["content"]
    text = canned.canned_reply(CompletionRequest(prompt, stage_of(prompt)))
    return 200, {"choices": [{"message": {"content": text}}]}


@contextlib.contextmanager
def serving(endpoint):
    """Serves `endpoint` on 127.0.0.1 for the block; yields its (host, port)."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            reply = endpoint.take(self.path, self.headers, body)
            if isinstance(reply, bytes):
                self.wfile.write(reply)
                return
            status, content = reply
            data = (json.dumps(content) if isinstance(content, dict) else content).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        do_GET = do_POST  # so a followed redirect shows up in `received`

        def log_message(self, format, *args):
            pass  # no request log on stderr, which tests read

    class Server(http.server.ThreadingHTTPServer):
        request_queue_size = 64  # the default 5 drops connections that N * N question lanes open at once

    server = Server(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # so server_close joins every handler
    # a short poll interval, as shutdown waits for the loop's next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), name="live-endpoint")
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def live_endpoint(monkeypatch):
    """A LiveEndpoint on 127.0.0.1 that LiveProvider is pointed at, with no retries."""
    endpoint = LiveEndpoint()
    with serving(endpoint) as (host, port):
        monkeypatch.setenv("SKILLPATH_API_BASE", f"http://{host}:{port}/v1")
        monkeypatch.setenv("SKILLPATH_MODEL", "m")
        monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "0")
        monkeypatch.setenv("SKILLPATH_RETRY_BACKOFF", "0")
        monkeypatch.setenv("no_proxy", host)
        yield endpoint


@pytest.fixture
def proxy_endpoint():
    """A second LiveEndpoint on 127.0.0.1, to stand as a proxy; `address` is its host:port."""
    endpoint = LiveEndpoint()
    with serving(endpoint) as (host, port):
        endpoint.address = f"{host}:{port}"
        yield endpoint


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            ok = rows.get(name, True) and report.outcome == "passed"
            rows[name] = ok
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name in sorted(rows):
            verdict = "PASS" if rows[name] else "FAIL"
            terminalreporter.write_line(f"  [acceptance] {name}: {verdict}")
