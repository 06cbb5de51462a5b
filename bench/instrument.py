"""Benchmark hooks on the package's public names.

ProviderMeter replaces Provider.complete at class level. It counts only
the outermost call on each thread, so a RecordingProvider around a
backend is one call, not two, and the modelled network delay is paid once.

Tracer wraps each layer's public functions by identity: every loaded
skillpath module that holds a reference to a target function gets the
wrapper, so call sites that imported the name directly are traced too.
Spans stay in memory; self time is a span's duration minus the part of it
that its child spans cover. A target that no longer exists is an error,
never a silent gap in the numbers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from typing import NamedTuple

# layer -> (module, public functions or Class.method). The providers layer
# includes the canned backend: its reply work runs inside Provider.complete.
LAYERS = {
    "corpus": ("skillpath.corpus", ["load_records"]),
    "textutil": ("skillpath.textutil", ["split_sentences"]),
    "decompose": ("skillpath.decompose", [
        "decompose_question", "classify_tokens", "build_template", "RuleBasedTagger.tag"]),
    "examplegen": ("skillpath.examplegen", [
        "generate_candidates", "score_candidates", "score_similarity", "filter_candidates",
        "synthesize_example", "build_strategy", "build_reference_docs"]),
    "collection": ("skillpath.collection", ["persist_bundle", "restore_bundle", "build_collection"]),
    "matcher": ("skillpath.matcher", ["select_best"]),
    "answerer": ("skillpath.answerer", [
        "answer", "select_for", "extract_relevant_segment", "format_prompt"]),
    "metrics": ("skillpath.metrics", ["attribute_citations", "evaluate_records", "per_record_rows"]),
    "providers": ("skillpath.providers", ["Provider.complete", "Transcript.load", "fingerprint"]),
    "cli": ("skillpath.cli", ["main", "cmd_generate", "cmd_answer", "cmd_eval"]),
}


# spans of whole-command work: they belong to no single question
_COMMAND_LEVEL = {"corpus.load_records", "collection.persist_bundle", "collection.restore_bundle",
                  "metrics.evaluate_records", "metrics.per_record_rows"}


class HookError(RuntimeError):
    """A hook target is missing from the package."""


def _resolve(module_name: str, target: str):
    """(owner, attribute, raw value) for a module function or Class.method."""
    module = sys.modules.get(module_name)
    if module is None:
        raise HookError(f"module {module_name} is not loaded")
    owner, attr = module, target
    if "." in target:
        cls_name, attr = target.split(".", 1)
        owner = getattr(module, cls_name, None)
        if not isinstance(owner, type):
            raise HookError(f"{module_name}.{cls_name} is not a class")
        if attr not in vars(owner):
            raise HookError(f"{module_name}.{target} is not defined on the class")
        return owner, attr, vars(owner)[attr]
    if not callable(getattr(module, attr, None)):
        raise HookError(f"{module_name}.{target} is missing")
    return owner, attr, getattr(module, attr)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, old, new) -> None:
        """Point every skillpath module reference to `old` at `new`."""
        for name, module in list(sys.modules.items()):
            if name == "skillpath" or name.startswith("skillpath."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        self.set(module, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class ProviderMeter:
    """Outermost-call accounting and modelled network delay.

    Counts are keyed by (command, request tag). The delay of a request is
    a function of its prompt alone, uniform in [0.5, 1.5) times the mean,
    so a run's total delay does not depend on thread scheduling.
    """

    def __init__(self):
        self.delay_mean_s = 0.0
        self.command = ""
        self.tracer: Tracer | None = None
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches = _Patches()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Counter = Counter()
            self.tokens: Counter = Counter()
            self.failed = 0
            self.wait_s = 0.0

    def install(self) -> None:
        from skillpath import providers

        base = providers.Provider
        owner, attr, original = _resolve("skillpath.providers", "Provider.complete")
        for sub in _subclasses(base):
            if "complete" in vars(sub):
                raise HookError(f"{sub.__module__}.{sub.__name__} overrides complete(); "
                                "outermost-call accounting would miss it")
        meter = self

        @functools.wraps(original)
        def complete(provider, request):
            depth = getattr(meter._tls, "depth", 0)
            if depth:
                meter._tls.depth = depth + 1
                try:
                    return original(provider, request)
                finally:
                    meter._tls.depth = depth
            meter._tls.depth = 1
            try:
                if meter.delay_mean_s:
                    meter._wait(request.prompt)
                result = original(provider, request)
            except BaseException:
                with meter._lock:
                    meter.failed += 1
                raise
            finally:
                meter._tls.depth = 0
            key = (meter.command, request.tag)
            with meter._lock:
                meter.calls[key] += 1
                meter.tokens[key] += result.usage.total_tokens
            return result

        self._patches.set(owner, attr, complete)

    def _wait(self, prompt: str) -> None:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        seconds = self.delay_mean_s * (0.5 + fraction)
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("network", "network.wait"):
                time.sleep(seconds)
        else:
            time.sleep(seconds)
        with self._lock:
            self.wait_s += time.perf_counter() - started


class Span(NamedTuple):
    id: int
    parent: int | None
    layer: str
    name: str  # module.function or module.Class.method
    command: str
    question: str | None
    start: float
    end: float
    n_in: int | None  # length of a list first argument
    n_out: int | None  # length of a list or dict result
    error: str | None  # exception class, when the call raised
    thread: int


class Tracer:
    """In-memory spans around every hooked public function.

    A span opened on a worker thread with nothing open on that thread
    takes as parent the span open on the thread that started the run, so
    fan-out work counts as child coverage of the command that waits on it.
    The question of a span is set where a question's work starts: its
    decomposition, its selection or its citation attribution.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root_stack: list[int] | None = None
        self._patches = _Patches()
        self._question_by_text: dict[str, str] = {}
        self._question_by_collection: dict[int, str] = {}

    def set_corpus(self, rows: list[dict]) -> None:
        """Question ids by question text and by first document text."""
        self._question_by_text = {}
        for row in rows:
            self._question_by_text[row["question"]] = row["question_id"]
            self._question_by_text[row["documents"][0]] = row["question_id"]

    def install(self) -> None:
        for layer, (module_name, targets) in LAYERS.items():
            for target in targets:
                owner, attr, raw = _resolve(module_name, target)
                name = f"{module_name.rsplit('.', 1)[-1]}.{target}"
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patches.set(owner, attr, type(raw)(self._wrap(raw.__func__, layer, name)))
                elif owner is sys.modules[module_name]:
                    self._patches.rebind(raw, self._wrap(raw, layer, name))
                else:
                    self._patches.set(owner, attr, self._wrap(raw, layer, name))

    def uninstall(self) -> None:
        self._patches.undo()

    def _question_from(self, name: str, args: tuple):
        if name in ("decompose.decompose_question", "answerer.answer") and args:
            return self._question_by_text.get(args[0])
        if name == "answerer.select_for" and args:
            return self._question_by_collection.get(id(args[0]))
        if name == "metrics.attribute_citations" and len(args) > 1 and args[1]:
            return self._question_by_text.get(args[1][0])
        return None

    def _open(self, layer: str, name: str, args: tuple):
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
            self._root_stack = stack
        if layer == "cli" or name in _COMMAND_LEVEL:
            tls.question = None
        question = self._question_from(name, args)
        if question is not None:
            tls.question = question
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack, getattr(tls, "question", None)

    def _close(self, opened, layer, name, started, n_in, n_out, error) -> None:
        ended = time.perf_counter()
        sid, parent, stack, question = opened
        stack.pop()
        if not stack and stack is self._root_stack:
            self._root_stack = None
        self.spans.append(Span(sid, parent, layer, name, self.command, question,
                               started, ended, n_in, n_out, error, threading.get_ident()))

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open(layer, name, args)
            n_in = len(args[0]) if args and isinstance(args[0], list) else None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(opened, layer, name, started, n_in, None, type(exc).__name__)
                raise
            n_out = len(result) if isinstance(result, (list, dict)) else None
            if name == "collection.restore_bundle":
                tracer._question_by_collection.update((id(c), q) for q, c in result.items())
            tracer._close(opened, layer, name, started, n_in, n_out, None)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        opened = self._open(layer, name, ())
        started = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            self._close(opened, layer, name, started, None, None, type(exc).__name__)
            raise
        self._close(opened, layer, name, started, None, None, None)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c_start, c_end in sorted(children.get(s.id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, s.end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s.id] = (s.end - s.start) - covered
    return out


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
