"""fan_out and the pipeline paths that overlap provider calls through it.

Calls with distinct keys overlap, up to the parallelism given; identical
requests keep program order, so record and replay see the same occurrence
index for every request no matter how the threads interleave.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import skillpath.cli as cli
from skillpath.answerer import answer
from skillpath.canned import CannedProvider, canned_reply
from skillpath.collection import build_collection, persist_bundle
from skillpath.examplegen import (
    CandidateQuestion,
    ConstructionMode,
    ReasoningStrategy,
    build_reference_docs,
    score_candidates,
)
from skillpath.providers import (
    CompletionResult,
    MockProvider,
    Provider,
    RecordingProvider,
    TokenUsage,
    Transcript,
    fan_out,
)
from skillpath.skills import ReasoningSkill as S
from skillpath.textutil import count_ws_tokens, split_sentences

from conftest import make_example

DOC = (
    "The Eiffel Tower was completed in 1889. "
    "It stands 330 metres tall. "
    "The Empire State Building was completed in 1931."
)
EIFFEL = "Which is taller, the Eiffel Tower or the Empire State Building?"
STAMP = "2026-01-01T00:00:00Z"


# ------------------------------------------------------------ the helper

def test_results_come_back_in_item_order():
    def slower_for_larger(i):
        time.sleep(0.01 * i)
        return i * 10

    # later items finish first
    assert fan_out(slower_for_larger, [3, 1, 2, 0], key=lambda i: i, parallelism=4) == [
        30, 10, 20, 0
    ]


def test_equal_keys_run_in_item_order():
    seen = []
    lock = threading.Lock()

    def fn(item):
        key, delay = item
        time.sleep(delay)
        with lock:
            seen.append(item)
        return item

    items = [("a", 0.03), ("b", 0.0), ("a", 0.0), ("b", 0.02), ("a", 0.01)]
    assert fan_out(fn, items, key=lambda item: item[0], parallelism=2) == items
    assert [item for item in seen if item[0] == "a"] == [("a", 0.03), ("a", 0.0), ("a", 0.01)]
    assert [item for item in seen if item[0] == "b"] == [("b", 0.0), ("b", 0.02)]


def test_one_group_or_parallelism_one_runs_on_the_calling_thread():
    caller = threading.get_ident()
    same = fan_out(lambda _: threading.get_ident(), [1, 2, 3], key=lambda _: "s", parallelism=4)
    assert same == [caller] * 3
    assert fan_out(lambda _: threading.get_ident(), [1, 2, 3], key=lambda i: i) == [caller] * 3
    assert fan_out(lambda _: 1, [], key=lambda _: 0, parallelism=4) == []


def test_no_more_groups_than_parallelism_run_at_once():
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def fn(i):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.01)
        with lock:
            running[0] -= 1
        return i

    assert fan_out(fn, range(8), key=lambda i: i, parallelism=3) == list(range(8))
    assert peak[0] <= 3
    peak[0] = 0
    assert fan_out(fn, range(4), key=lambda i: i) == list(range(4))
    assert peak[0] == 1


def test_first_failure_in_item_order_is_raised_after_slower_siblings_finish():
    finished = []

    def fn(item):
        name, delay, fails = item
        time.sleep(delay)
        finished.append(name)
        if fails:
            raise ValueError(name)
        return name

    items = [("a", 0.0, False), ("b", 0.05, True), ("c", 0.0, True), ("d", 0.15, False)]
    with pytest.raises(ValueError, match="^b$"):
        fan_out(fn, items, key=lambda item: item[0], parallelism=4)
    # c failed first in time, but b comes first in item order; d was slowest
    assert sorted(finished) == ["a", "b", "c", "d"]


def test_a_group_stops_at_its_first_failure_and_the_others_run_on():
    ran = []

    def fn(i):
        ran.append(i)
        if i == 1:
            raise KeyError(i)
        return i

    for parallelism in (1, 2):
        ran.clear()
        with pytest.raises(KeyError):
            fan_out(fn, [0, 1, 2, 3, 4, 5], key=lambda i: i % 2, parallelism=parallelism)
        assert sorted(ran) == [0, 1, 2, 4]


def test_fan_out_inside_fan_out_finishes_with_every_pool_thread_busy():
    # more outer lanes than cores, each running an inner fan_out: inner
    # groups run on the lane that asked and on helpers it starts itself,
    # so no lane waits for a thread that another lane holds
    def outer(i):
        return fan_out(lambda j: (i, j), range(5), key=lambda j: j, parallelism=8)

    width = 4 * (os.cpu_count() or 1) + 8
    found = []
    runner = threading.Thread(
        target=lambda: found.append(fan_out(outer, range(width), key=lambda i: i, parallelism=width)),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert found == [[[(i, j) for j in range(5)] for i in range(width)]]


def test_groups_run_on_the_calling_thread_when_no_thread_can_start(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.get_ident()
    assert fan_out(
        lambda i: (i, threading.get_ident()), [0, 1, 2], key=lambda i: i, parallelism=3
    ) == [(0, caller), (1, caller), (2, caller)]


def test_what_a_helper_lane_lets_through_is_raised_on_the_caller():
    class Stop(BaseException):
        pass

    caller = threading.get_ident()
    helper_ran = threading.Event()

    def fn(i):
        if threading.get_ident() != caller:
            helper_ran.set()
            raise Stop(i)  # not an Exception, so the helper's lane ends here
        assert helper_ran.wait(timeout=5)
        return i

    with pytest.raises(Stop):
        fan_out(fn, range(4), key=lambda i: i, parallelism=2)


# ------------------------------------------------------------ overlap

def test_extractions_of_distinct_skills_overlap():
    barrier = threading.Barrier(2, timeout=5)

    def reply(request):
        if request.tag == "segment":
            barrier.wait()  # breaks after 5 s if the two steps run one after the other
            return "It stands 330 metres tall."
        return "<answer>330 metres</answer>"

    example = make_example([S.DEDUCTIVE, S.INDUCTIVE])
    trace = answer("How tall?", DOC, example, MockProvider(reply), parallelism=2)
    assert trace.focused_segments == ["It stands 330 metres tall."] * 2


def test_similarity_scores_of_distinct_candidates_overlap():
    barrier = threading.Barrier(2, timeout=5)

    def reply(request):
        barrier.wait()
        return "Score: 8"

    candidates = [CandidateQuestion(q, ConstructionMode.GUIDED_FILL) for q in ("q one", "q two")]
    scored = score_candidates("orig", candidates, MockProvider(reply), parallelism=2)
    assert [c.similarity_score for c in scored] == [8, 8]


def test_reference_documents_of_distinct_subquestions_overlap(tmp_path, monkeypatch):
    barrier = threading.Barrier(2, timeout=5)

    class Backend(Provider):
        def _complete(self, request):
            if request.tag == "reference":
                barrier.wait()  # the canned strategies have two distinct subquestions
            return CannedProvider().complete(request)

    monkeypatch.setattr(cli, "CannedProvider", Backend)
    assert cli.main(["generate", "--provider", "mock", "--corpus", _landmark_corpus(tmp_path, 1),
                     "--collection", str(tmp_path / "bundle.json"), "--parallelism", "2"]) == 0


class InFlight(Provider):
    """Canned replies after a short pause, counting the calls in flight."""

    name = "in-flight"

    def __init__(self):
        self._canned = CannedProvider()
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0

    def _complete(self, request):
        with self._lock:
            self._running += 1
            self.peak = max(self.peak, self._running)
        try:
            time.sleep(0.005)
            return self._canned.complete(request)
        finally:
            with self._lock:
                self._running -= 1


def test_parallelism_bounds_the_requests_in_flight(tmp_path, monkeypatch):
    def peaks(questions, parallelism):
        """The most requests in flight during generate, then during answer."""
        name = f"{questions}-{parallelism}"
        bundle, run_log = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")
        common = ["--provider", "mock", "--corpus", _landmark_corpus(tmp_path, questions),
                  "--parallelism", str(parallelism)]
        found = []
        for argv in (["generate", *common, "--collection", bundle, "--count", "3"],
                     ["answer", *common, "--collection", bundle, "--run-log", run_log]):
            backend = InFlight()
            monkeypatch.setattr(cli, "CannedProvider", lambda: backend)
            assert cli.main(argv) == 0
            found.append(backend.peak)
        return found

    assert peaks(4, 1) == [1, 1]  # one request at a time
    # one question: only its own calls overlap (the canned strategies have two skills)
    assert peaks(1, 2) == [2, 2]
    assert all(2 <= peak <= 4 for peak in peaks(4, 2))  # 2 questions at once, 2 calls each


def test_every_question_lane_overlaps_its_own_calls(tmp_path, monkeypatch):
    # one question more than a thread pool of Python's default size has
    # threads: each question and both of its extractions hold a request at once
    width = min(32, (os.cpu_count() or 1) + 4) + 1
    barrier = threading.Barrier(2 * width, timeout=5)
    lock = threading.Lock()
    segments = [0]

    class Backend(Provider):
        def _complete(self, request):
            if request.tag == "segment":
                with lock:
                    segments[0] += 1
                    waits = segments[0] <= 2 * width
                if waits:
                    barrier.wait()  # breaks after 5 s unless all 2 * width are in flight
            return CannedProvider().complete(request)

    rows = [{"question_id": f"q{i}", "question": f"How tall is tower {i}?", "documents": [DOC],
             "gold_answers": ["x"]} for i in range(width)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    bundle = str(tmp_path / "bundle.json")
    example = make_example([S.DEDUCTIVE, S.INDUCTIVE])
    persist_bundle({row["question_id"]: build_collection([example]) for row in rows},
                   bundle, construction_mode="guided_fill", delta=7, created_at=STAMP)
    monkeypatch.setattr(cli, "CannedProvider", Backend)
    assert cli.main(["answer", "--provider", "mock", "--corpus", str(corpus), "--collection", bundle,
                     "--run-log", str(tmp_path / "run.jsonl"), "--parallelism", str(width)]) == 0
    assert segments[0] == 2 * width


def test_an_unexpected_error_leaves_the_same_work_done_at_every_parallelism(tmp_path, monkeypatch):
    corpus = _landmark_corpus(tmp_path, 6)
    failing = json.loads(Path(corpus).read_text(encoding="utf-8").splitlines()[1])["question"]

    def run(parallelism):
        """The requests sent, the checkpointed questions, whether a bundle was written."""
        sent = Counter()
        lock = threading.Lock()

        class Backend(Provider):
            def _complete(self, request):
                with lock:
                    sent[request.tag, request.prompt] += 1
                if f"original question: {failing}\n" in request.prompt:
                    raise RuntimeError("backend crashed")
                return CannedProvider().complete(request)

        monkeypatch.setattr(cli, "CannedProvider", Backend)
        bundle = tmp_path / f"bundle{parallelism}.json"
        with pytest.raises(RuntimeError, match="^backend crashed$"):
            cli.main(["generate", "--provider", "mock", "--corpus", corpus, "--collection", str(bundle),
                      "--count", "3", "--parallelism", str(parallelism)])
        checkpoint = Path(f"{bundle}.checkpoint.jsonl").read_text(encoding="utf-8")
        done = sorted(json.loads(line)["question_id"] for line in checkpoint.splitlines())
        return sent, done, bundle.exists()

    serial = run(1)
    # the failing question is the second: the four after it still ran
    assert serial[1:] == (["q0", "q2", "q3", "q4", "q5"], False)
    assert run(4) == serial


# ------------------------------------------------------------ record and replay

class JitteryBackend(Provider):
    """Replies that depend on how often the same prompt was seen before.

    Each call sleeps a jitter drawn from the seed before and after it
    counts its prompt, so every recording interleaves the overlapping
    calls differently, and reports non-zero latencies whose float sum
    rounds differently in a different order.
    """

    name = "jittery"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._seen: Counter = Counter()

    def _complete(self, request):
        with self._lock:
            before, after = self._rng.uniform(0.0, 0.004), self._rng.uniform(0.0, 0.004)
        time.sleep(before)  # identical requests sent at once reach the count in either order
        with self._lock:
            occurrence = self._seen[request.prompt]
            self._seen[request.prompt] += 1
        time.sleep(after)
        text = self._reply(request, occurrence)
        usage = TokenUsage.of(count_ws_tokens(request.prompt), count_ws_tokens(text))
        return CompletionResult(text, usage, self._latency(request, occurrence))

    @staticmethod
    def _latency(request, occurrence: int) -> float:
        if f"step: {S.DEDUCTIVE.display_name} (" in request.prompt:
            return (0.2, 0.3)[occurrence % 2]
        return 0.1

    @staticmethod
    def _reply(request, occurrence: int) -> str:
        if request.tag == "segment":
            sentences = split_sentences(DOC)
            return sentences[occurrence % len(sentences)]
        if request.tag == "answer":
            return f"Seen {occurrence} times before. <answer>{occurrence}</answer>"
        if request.tag == "reference":
            return f"Reference note number {occurrence} for this step."
        return canned_reply(request)


def test_a_repeated_subquestion_is_asked_in_step_order():
    strategy = ReasoningStrategy(("Who?", "Who?", "When?"), (S.DEDUCTIVE, S.DEDUCTIVE, S.INDUCTIVE))
    for seed in range(5):
        docs = build_reference_docs(strategy, JitteryBackend(seed), parallelism=3)
        assert docs == [f"Reference note number {n} for this step." for n in (0, 1, 0)]


def _recorded_runs(tmp_path, monkeypatch, command, argv, outputs, seeds=range(5)):
    """Record the command at parallelism 3 once per seed, then replay it.

    Returns the output bytes and the saved transcript bytes of every
    recording; replaying each recording at parallelism 1 and at 3 must
    reproduce its output bytes.
    """
    runs = []
    for seed in seeds:
        out = tmp_path / f"{command}-{seed}"
        out.mkdir()
        recorder = RecordingProvider(JitteryBackend(seed))
        monkeypatch.setattr(cli, "CannedProvider", lambda: recorder)
        record = [command, "--provider", "mock", "--parallelism", "3"]
        assert cli.main([*record, *argv(out / "recorded")]) == 0
        transcript = out / "transcript.jsonl"
        Transcript(recorder.transcript.entries, "jittery", STAMP).save(str(transcript))
        recorded = outputs(out / "recorded")
        for parallelism in ("1", "3"):
            replay = [command, "--provider", "replay", "--transcript", str(transcript),
                      "--parallelism", parallelism]
            assert cli.main([*replay, *argv(out / f"replayed{parallelism}")]) == 0
            assert outputs(out / f"replayed{parallelism}") == recorded
        runs.append((recorded, transcript.read_bytes()))
    return runs


def test_answer_record_and_replay_are_byte_identical_under_jitter(tmp_path, monkeypatch):
    # distinct questions send each other no identical prompt, so they may run at once
    rows = [
        {"question_id": qid, "question": question, "documents": [DOC], "gold_answers": ["x"]}
        for qid, question in (("q1", "How tall?"), ("q2", "How high?"), ("q3", "How old?"))
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    bundle = str(tmp_path / "bundle.json")
    example = make_example([S.DEDUCTIVE, S.DEDUCTIVE, S.DECOMPOSITIONAL])
    persist_bundle(
        {row["question_id"]: build_collection([example]) for row in rows},
        bundle, construction_mode="guided_fill", delta=7, created_at=STAMP,
    )

    def argv(out):
        return ["--corpus", str(corpus), "--collection", bundle, "--run-log", f"{out}.jsonl"]

    def outputs(out):
        return (tmp_path / f"{out}.jsonl").read_bytes()

    runs = _recorded_runs(tmp_path, monkeypatch, "answer", argv, outputs)
    assert len(set(runs)) == 1
    run_log = [json.loads(line) for line in runs[0][0].splitlines()]
    # each question's two deductive steps got their prompt's first and second
    # replies in step order, its decompositional step the first of its own
    for line in run_log:
        assert line["focused_segments"] == [split_sentences(DOC)[i] for i in (0, 1, 0)]
    # summed in step order: 0.2 and 0.3 for the deductive steps, 0.1 for the
    # decompositional one, then 0.1 for the answer; any other order of these
    # float additions gives 0.7000000000000001
    assert [line["latency_ms"] for line in run_log] == [0.0 + 0.2 + 0.3 + 0.1 + 0.1] * 3
    assert 0.0 + 0.2 + 0.3 + 0.1 + 0.1 != 0.0 + 0.1 + 0.2 + 0.3 + 0.1


def test_generate_record_and_replay_are_byte_identical_under_jitter(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    row = {"question_id": "q1", "question": EIFFEL, "documents": [DOC], "gold_answers": ["x"]}
    corpus.write_text(json.dumps(row) + "\n", encoding="utf-8")

    def argv(out):
        return ["--corpus", str(corpus), "--collection", f"{out}.json", "--count", "5"]

    def outputs(out):
        doc = json.loads((tmp_path / f"{out}.json").read_text(encoding="utf-8"))
        return json.dumps(doc["collections"], sort_keys=True).encode("utf-8")

    runs = _recorded_runs(tmp_path, monkeypatch, "generate", argv, outputs)
    assert len(set(runs)) == 1
    examples = json.loads(runs[0][0])["q1"]["examples"]
    # every candidate asks the same two reference prompts, candidate by candidate
    assert len(examples) == 2
    docs = [example["reference_docs"] for example in examples]
    assert docs == [[f"Reference note number {n} for this step."] * 2 for n in (0, 1)]


# ------------------------------------------------------------ stress

def _landmark_corpus(tmp_path, limit=None) -> str:
    """Comparison questions over four landmarks, each with its own prompts."""
    places = ["Eiffel Tower", "Empire State Building", "Brooklyn Bridge", "Golden Gate Bridge"]
    rows = []
    for i, (a, b) in enumerate((a, b) for a in places for b in places if a != b):
        rows.append({
            "question_id": f"q{i}",
            "question": f"Which is taller, the {a} or the {b}?",
            "documents": [f"The {a} is tall. The {b} is taller. Both are landmarks.", DOC],
            "gold_answers": [b],
        })
    corpus = tmp_path / f"corpus{limit}.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows[:limit]), encoding="utf-8")
    return str(corpus)


def test_many_workers_with_frequent_thread_switches(tmp_path, monkeypatch):
    corpus = _landmark_corpus(tmp_path)
    workers = 4 * (os.cpu_count() or 1)

    def run(name, parallelism):
        recorders = []

        def recording_canned():
            recorders.append(RecordingProvider(CannedProvider()))
            return recorders[-1]

        monkeypatch.setattr(cli, "CannedProvider", recording_canned)
        bundle, run_log = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")
        common = ["--provider", "mock", "--corpus", corpus, "--parallelism", str(parallelism)]
        assert cli.main(["generate", *common, "--collection", bundle, "--count", "3"]) == 0
        assert cli.main(["answer", *common, "--collection", bundle, "--run-log", run_log]) == 0
        with open(bundle, encoding="utf-8") as fh:
            collections = json.load(fh)["collections"]
        with open(run_log, encoding="utf-8") as fh:
            log_lines = fh.read()
        return collections, log_lines, [r.transcript.entries for r in recorders]

    serial = run("serial", 1)
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 2.0
    rounds = 0
    try:
        sys.setswitchinterval(1e-5)
        while rounds == 0 or time.monotonic() < deadline:
            collections, log_lines, (generated, answered) = run(f"parallel{rounds}", workers)
            rounds += 1
            assert (collections, log_lines) == serial[:2]
            assert len(generated) == len(serial[2][0])
            assert len(answered) == len(serial[2][1])
            logged = [json.loads(line)["usage"] for line in log_lines.splitlines()]
            recorded = sum((e.result.usage for e in answered), TokenUsage.zero())
            assert sum(u["total_tokens"] for u in logged) == recorded.total_tokens
            assert sum(u["prompt_tokens"] for u in logged) == recorded.prompt_tokens
    finally:
        sys.setswitchinterval(interval)
