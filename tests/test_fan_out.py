"""The question lanes of cli._run_questions, question_scope, and the calls made on them.

The commands run N * N questions at once and each question's calls one
at a time, on its lane, inside the question's scope that its requests'
fingerprints include, so record and replay see the same identity for
every request no matter how the threads interleave, and which other
questions run. A stage function called outside the commands makes its
calls on the calling thread.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

import skillpath.cli as cli
import skillpath.collection as collection_mod
import skillpath.providers as providers
from skillpath.answerer import answer
from skillpath.canned import CannedProvider, canned_reply
from skillpath.collection import build_collection, persist_bundle
from skillpath.corpus import QARecord
from skillpath.decompose import decompose_question
from skillpath.errors import UnparseableStrategy
from skillpath.examplegen import (
    CandidateQuestion,
    ConstructionMode,
    generate_candidates,
    score_candidates,
    synthesize_example,
)
from skillpath.providers import (
    CompletionResult,
    MockProvider,
    Provider,
    RecordingProvider,
    TokenUsage,
    Transcript,
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


# ------------------------------------------------------------ the question lanes

def _run(parallelism, attempt, ids):
    """cli._run_questions of generate at `parallelism` over questions with these ids."""
    config = cli.RunConfig(command="generate", parallelism=parallelism)
    records = [QARecord(qid, f"Question {qid}?", ("Doc.",), ("A",)) for qid in ids]
    return cli._run_questions(config, records, attempt)


def test_results_come_back_in_input_order():
    def slower_for_earlier(record):
        time.sleep(0.01 * int(record.question_id[1:]))
        return record.question_id

    # at parallelism 2, all four questions run at once and later ones finish first
    done, failures = _run(2, slower_for_earlier, ["q3", "q1", "q2", "q0"])
    assert list(done.items()) == [(q, q) for q in ("q3", "q1", "q2", "q0")] and failures == 0


def test_a_question_scope_is_its_id_and_restores_the_previous_scope():
    with providers.question_scope("q1"):
        assert providers._scope.get() == ("q1",)
        with pytest.raises(KeyError):
            with providers.question_scope("q2"):
                assert providers._scope.get() == ("q2",)
                raise KeyError("q2")
        assert providers._scope.get() == ("q1",)
    assert providers._scope.get() == ()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_each_question_runs_in_its_own_scope_on_any_lane(parallelism):
    caller = threading.get_ident()

    def attempt(record):
        time.sleep(0.005)  # the questions overlap at parallelism 2
        return providers._scope.get(), threading.get_ident() == caller

    done, _ = _run(parallelism, attempt, ["q0", "q1", "q2", "q3"])
    assert [scope for scope, _ in done.values()] == [("q0",), ("q1",), ("q2",), ("q3",)]
    # at parallelism 1 every question runs on the calling thread
    assert all(on_caller for _, on_caller in done.values()) == (parallelism == 1)
    assert providers._scope.get() == ()
    assert _run(parallelism, attempt, []) == ({}, 0)


def test_first_unexpected_error_in_input_order_is_raised_after_slower_questions_finish():
    finished = []
    plan = {"a": (0.0, None), "b": (0.0, UnparseableStrategy("b")), "c": (0.05, ValueError("c")),
            "d": (0.0, ValueError("d")), "e": (0.15, None)}

    def attempt(record):
        delay, error = plan[record.question_id]
        time.sleep(delay)
        finished.append(record.question_id)
        if error is not None:
            raise error
        return record.question_id

    for parallelism in (1, 3):
        finished.clear()
        # d failed first in time, but c comes first in input order; b failed
        # its question only, and e was slowest
        with pytest.raises(ValueError, match="^c$"):
            _run(parallelism, attempt, list(plan))
        assert sorted(finished) == list(plan)


def test_a_failed_question_leaves_no_reference_cycle_that_holds_its_data():
    class Data:
        pass

    held = []

    def attempt(record):
        data = Data()  # a local of the failing call, as a question's documents are
        held.append(weakref.ref(data))
        raise UnparseableStrategy(record.question_id)

    gc.disable()  # so only reference counts free what the run leaves
    try:
        assert _run(1, attempt, ["q0", "q1"]) == ({}, 2)
        assert [ref() for ref in held] == [None, None]
    finally:
        gc.enable()


def test_questions_run_on_the_calling_thread_when_no_thread_can_start(tmp_path, monkeypatch):
    corpus = _landmark_corpus(tmp_path, 6)

    def collections(name, parallelism):
        bundle = tmp_path / f"{name}.json"
        assert cli.main(["generate", "--provider", "mock", "--corpus", corpus, "--collection", str(bundle),
                         "--count", "3", "--parallelism", str(parallelism)]) == 0
        return json.loads(bundle.read_text(encoding="utf-8"))["collections"]

    serial = collections("serial", 1)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert collections("refused", 3) == serial


def test_what_a_helper_lane_lets_through_is_raised_on_the_caller():
    class Stop(BaseException):
        pass

    caller = threading.get_ident()
    helper_ran = threading.Event()

    def attempt(record):
        if threading.get_ident() != caller:
            helper_ran.set()
            raise Stop(record.question_id)  # not an Exception, so the helper's lane ends here
        assert helper_ran.wait(timeout=5)
        return record.question_id

    with pytest.raises(Stop):
        _run(2, attempt, ["q0", "q1", "q2", "q3"])


def test_what_a_helper_lane_lets_through_stops_the_queue():
    class Stop(BaseException):
        pass

    caller = threading.get_ident()
    stopped = threading.Event()
    begun = []

    def attempt(record):
        begun.append(record.question_id)
        if threading.get_ident() != caller and not stopped.is_set():
            stopped.set()
            raise Stop(record.question_id)  # the first question a helper takes ends its lane
        assert stopped.wait(timeout=5)
        time.sleep(0.02)  # the other lanes are still in a question when the helper's lane ends
        return record.question_id

    # 4 lanes at parallelism 2: each begins at most one question after the stop, not all 40
    with pytest.raises(Stop):
        _run(2, attempt, [f"q{i}" for i in range(40)])
    assert len(begun) < 2 * 2 * 2


def test_a_stage_makes_every_call_on_the_calling_thread():
    threads = []

    def reply(request):
        threads.append(threading.get_ident())
        return {
            "similarity": "1. Score: 8\n2. Score: 8",
            "strategy": "1. How tall? (deductive)\n2. How old? (inductive)\nGenerated Answer: x",
            "reference": "1. It stands 330 metres tall.\n2. It opened in 1889.",
            "segment": "It stands 330 metres tall.",
        }.get(request.tag, "<answer>330 metres</answer>")

    provider = MockProvider(reply)
    candidates = [CandidateQuestion(q, ConstructionMode.GUIDED_FILL) for q in ("q one", "q two")]
    score_candidates("orig", candidates, provider)
    synthesize_example("q one", provider)
    answer("How tall?", DOC, make_example([S.DEDUCTIVE, S.INDUCTIVE]), provider)
    # one call scores both candidates; a strategy and one reference call for both steps; two extractions and the answer
    assert threads == [threading.get_ident()] * 6


# ------------------------------------------------------------ one call at a time per question

@pytest.mark.parametrize("command", ["generate", "answer"])
def test_every_call_of_a_question_runs_on_its_lane_in_program_order(tmp_path, monkeypatch, command):
    corpus = _landmark_corpus(tmp_path, 6)
    bundle = str(tmp_path / "bundle.json")
    assert cli.main(["generate", "--provider", "mock", "--corpus", corpus, "--collection", bundle,
                     "--count", "3"]) == 0
    argv = {"generate": ["--collection", str(tmp_path / "out.json"), "--count", "3"],
            "answer": ["--collection", bundle, "--run-log", str(tmp_path / "run.jsonl")]}[command]

    def calls(parallelism):
        """question id -> [(tag, prompt)] in arrival order, and the threads that sent them."""
        sent: dict[str, list] = {}
        threads: dict[str, set] = {}
        lock = threading.Lock()

        class Backend(Provider):
            def _complete(self, request):
                (qid,) = providers._scope.get()
                with lock:
                    sent.setdefault(qid, []).append((request.tag, request.prompt))
                    threads.setdefault(qid, set()).add(threading.get_ident())
                time.sleep(0.002)  # a second call of the question would overlap this one
                return CannedProvider().complete(request)

        monkeypatch.setattr(cli, "CannedProvider", Backend)
        assert cli.main([command, "--provider", "mock", "--corpus", corpus,
                         "--parallelism", str(parallelism), *argv]) == 0
        return sent, threads

    serial, _ = calls(1)
    parallel, threads = calls(2)
    assert sorted(serial) == [f"q{i}" for i in range(6)]
    assert parallel == serial  # each question's calls in the same order at both N
    assert all(len(ids) == 1 for ids in threads.values())


@pytest.mark.parametrize("parallelism", [1, 3])
def test_identical_requests_inside_a_question_go_in_program_order(tmp_path, monkeypatch, parallelism):
    # steps 0 and 1 share a skill, so they send one extraction prompt, and
    # the backend numbers each prompt's arrivals
    sentences = split_sentences(DOC)
    seen: Counter = Counter()
    started: set = set()
    lock = threading.Lock()

    class ArrivalOrderSegments(Provider):
        def _complete(self, request):
            if request.tag != "segment":
                return CannedProvider().complete(request)
            scope = providers._scope.get()
            with lock:
                first = scope not in started
                started.add(scope)
            if first:
                time.sleep(0.01)  # the question's step 0 is slow to arrive: sent at once, step 1 would come first
            with lock:
                arrival = seen[request.prompt]
                seen[request.prompt] += 1
            return CompletionResult(sentences[arrival], TokenUsage.of(1, 1))

    rows = [{"question_id": f"q{i}", "question": f"How tall is tower {i}?", "documents": [DOC],
             "gold_answers": ["x"]} for i in range(6)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    bundle = str(tmp_path / "bundle.json")
    example = make_example([S.DEDUCTIVE, S.DEDUCTIVE, S.DECOMPOSITIONAL])
    persist_bundle({row["question_id"]: build_collection([example]) for row in rows}, bundle)
    monkeypatch.setattr(cli, "CannedProvider", ArrivalOrderSegments)
    run_log = tmp_path / "run.jsonl"
    assert cli.main(["answer", "--provider", "mock", "--corpus", str(corpus), "--collection", bundle,
                     "--run-log", str(run_log), "--parallelism", str(parallelism)]) == 0
    logged = [json.loads(line) for line in run_log.read_text(encoding="utf-8").splitlines()]
    # step 0 gets the first reply to the shared prompt, step 1 the second
    assert [line["focused_segments"] for line in logged] == [[sentences[0], sentences[1], sentences[0]]] * 6


@pytest.mark.parametrize("command", ["generate", "answer"])
def test_parallelism_40_on_three_questions_starts_two_helper_threads(tmp_path, monkeypatch, command):
    common = ["--provider", "mock", "--corpus", _landmark_corpus(tmp_path, 3)]
    bundle = str(tmp_path / "bundle.json")
    argv = {"generate": ["--collection", bundle, "--count", "3"],
            "answer": ["--collection", bundle, "--run-log", str(tmp_path / "run.jsonl")]}
    if command == "answer":
        assert cli.main(["generate", *common, *argv["generate"]]) == 0
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)  # the lane still runs

    monkeypatch.setattr(threading.Thread, "start", counted)
    assert cli.main([command, *common, *argv[command], "--parallelism", "40"]) == 0
    # three question lanes: the calling thread and two helpers, and no thread within a question
    assert len(started) == 2


class InFlight(Provider):
    """Canned replies, each held until `expected` calls have been in flight at once.

    A call waits until the peak of calls in flight reaches `expected`, or
    for at most 1 s where fewer can overlap, so the peak does not depend
    on how fast helper threads are scheduled.
    """

    name = "in-flight"

    def __init__(self, expected):
        self._canned = CannedProvider()
        self._changed = threading.Condition()
        self._expected = expected
        self._running = 0
        self.peak = 0

    def _complete(self, request):
        with self._changed:
            self._running += 1
            self.peak = max(self.peak, self._running)
            self._changed.notify_all()
            self._changed.wait_for(lambda: self.peak >= self._expected, timeout=1)
        try:
            time.sleep(0.005)  # callers let through too early would pile up here
            return self._canned.complete(request)
        finally:
            with self._changed:
                self._running -= 1


def test_parallelism_bounds_the_requests_in_flight(tmp_path, monkeypatch):
    def peaks(questions, parallelism, expected):
        """The most requests in flight during generate, then during answer."""
        name = f"{questions}-{parallelism}"
        bundle, run_log = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")
        common = ["--provider", "mock", "--corpus", _landmark_corpus(tmp_path, questions),
                  "--parallelism", str(parallelism)]
        found = []
        for argv, wanted in zip((["generate", *common, "--collection", bundle, "--count", "3"],
                                 ["answer", *common, "--collection", bundle, "--run-log", run_log]), expected):
            backend = InFlight(wanted)
            monkeypatch.setattr(cli, "CannedProvider", lambda: backend)
            assert cli.main(argv) == 0
            found.append(backend.peak)
        return found

    assert peaks(4, 1, (1, 1)) == [1, 1]  # one request at a time
    # one question makes one call at a time at any N
    assert peaks(1, 2, (1, 1)) == [1, 1]
    # N * N questions at once, one call each, and never more
    assert peaks(12, 2, (4, 4)) == [4, 4]
    assert peaks(12, 3, (9, 9)) == [9, 9]


def test_an_unexpected_error_leaves_the_same_work_done_at_every_parallelism(tmp_path, monkeypatch):
    corpus = _landmark_corpus(tmp_path, 6)
    failing = json.loads(Path(corpus).read_text(encoding="utf-8").splitlines()[1])["question"]

    build = collection_mod.build_collection

    def run(parallelism):
        """The requests sent, the questions whose collections were built, whether a bundle was written."""
        sent = Counter()
        lock = threading.Lock()
        built = []
        monkeypatch.setattr(collection_mod, "build_collection",
                            lambda examples: built.append(providers._scope.get()[0]) or build(examples))

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
        return sent, sorted(built), bundle.exists()

    serial = run(1)
    # the failing question is the second: the four after it still ran
    assert serial[1:] == (["q0", "q2", "q3", "q4", "q5"], False)
    assert run(4) == serial


def test_a_failing_candidate_fails_its_question_before_the_next_candidate_is_sent(tmp_path, monkeypatch, capsys):
    corpus = _landmark_corpus(tmp_path, 1)
    question = json.loads(Path(corpus).read_text(encoding="utf-8"))["question"]
    template = decompose_question(question)
    first = generate_candidates(template, ConstructionMode.GUIDED_FILL, 10, CannedProvider())[0].text

    def run(parallelism):
        """The requests sent and what generate printed to stderr."""
        sent = Counter()
        lock = threading.Lock()

        class Backend(Provider):
            def _complete(self, request):
                with lock:
                    sent[request.tag, request.prompt] += 1
                if request.tag == "strategy" and f'Input Question: "{first}"' in request.prompt:
                    return CompletionResult("No steps in this reply.", TokenUsage.of(1, 5))
                return CannedProvider().complete(request)

        monkeypatch.setattr(cli, "CannedProvider", Backend)
        assert cli.main(["generate", "--provider", "mock", "--corpus", corpus, "--collection",
                         str(tmp_path / f"bundle{parallelism}.json"),
                         "--parallelism", str(parallelism)]) == 1
        return sent, capsys.readouterr().err

    serial = run(1)
    assert "[generate] question q0: reply contains no numbered steps" in serial[1]
    # candidate 0's strategy was the question's last request: candidate 1 sent neither of its kinds
    assert sum(n for (tag, _), n in serial[0].items() if tag == "strategy") == 1
    assert sum(n for (tag, _), n in serial[0].items() if tag == "reference") == 0
    assert run(3) == serial


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
            return _numbered_notes(request, occurrence)
        return canned_reply(request)


def _numbered_notes(request, arrival: int) -> str:
    """A reference reply to request that names, for each of its steps, the arrival number of its prompt."""
    steps = len(canned_reply(request).splitlines())
    return "\n".join(f"{n}. Reference note number {arrival} for this step." for n in range(1, steps + 1))


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
        Transcript(recorder.transcript.entries, "jittery").save(str(transcript))
        recorded = outputs(out / "recorded")
        for parallelism in ("1", "3"):
            replay = [command, "--provider", "replay", "--transcript", str(transcript),
                      "--parallelism", parallelism]
            assert cli.main([*replay, *argv(out / f"replayed{parallelism}")]) == 0
            assert outputs(out / f"replayed{parallelism}") == recorded
        runs.append((recorded, transcript.read_bytes()))
    return runs


def test_answer_record_and_replay_are_byte_identical_under_jitter(tmp_path, monkeypatch):
    rows = [
        {"question_id": qid, "question": question, "documents": [DOC], "gold_answers": ["x"]}
        for qid, question in (("q1", "How tall?"), ("q2", "How high?"), ("q3", "How old?"))
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    bundle = str(tmp_path / "bundle.json")
    example = make_example([S.DEDUCTIVE, S.DEDUCTIVE, S.DECOMPOSITIONAL])
    persist_bundle({row["question_id"]: build_collection([example]) for row in rows}, bundle)

    def argv(out):
        return ["--corpus", str(corpus), "--collection", bundle, "--run-log", f"{out}.jsonl"]

    def outputs(out):
        return (tmp_path / f"{out}.jsonl").read_bytes()

    sentences = split_sentences(DOC)
    for recorded, _ in _recorded_runs(tmp_path, monkeypatch, "answer", argv, outputs):
        for line in (json.loads(line) for line in recorded.splitlines()):
            # the two deductive steps send one prompt, one after the other
            assert line["focused_segments"] == [sentences[0], sentences[1], sentences[0]]
            # summed in step order: 0.2 and 0.3 for the deductive steps, 0.1
            # for the decompositional one, then 0.1 for the answer; any other
            # order of these float additions gives 0.7000000000000001
            assert line["latency_ms"] == 0.0 + 0.2 + 0.3 + 0.1 + 0.1
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

    for recorded, _ in _recorded_runs(tmp_path, monkeypatch, "generate", argv, outputs):
        examples = json.loads(recorded)["q1"]["examples"]
        # both candidates send one reference prompt, the same for both, the first candidate first
        assert [example["reference_docs"] for example in examples] == [
            [f"Reference note number {n} for this step."] * 2 for n in (0, 1)
        ]


class ArrivalOrder(Provider):
    """Canned replies, except that a reference reply numbers its prompt's arrivals."""

    name = "arrival-order"

    def __init__(self):
        self._lock = threading.Lock()
        self._seen: Counter = Counter()

    def _complete(self, request):
        if request.tag != "reference":
            return CannedProvider().complete(request)
        with self._lock:
            arrival = self._seen[request.prompt]
            self._seen[request.prompt] += 1
        text = _numbered_notes(request, arrival)
        return CompletionResult(text, TokenUsage.of(count_ws_tokens(request.prompt), 7))


def test_questions_sharing_prompts_replay_their_own_replies_at_parallelism_8(tmp_path, monkeypatch):
    # every question asks the canned strategies' one reference prompt, so
    # questions running at once race for the arrival numbers in the replies
    places = ["Eiffel Tower", "Empire State Building", "Golden Gate Bridge", "Taj Mahal"]
    questions = [f"Which is {adj}, the {a} or the {b}?"
                 for adj in ("taller", "older", "longer", "wider")
                 for a in places for b in places if a != b]
    rows = [{"question_id": f"q{i}", "question": question, "documents": [DOC], "gold_answers": ["x"]}
            for i, question in enumerate(questions[:40])]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

    def generate(name, provider_args):
        bundle = tmp_path / f"{name}.json"
        assert cli.main(["generate", *provider_args, "--corpus", str(corpus), "--collection",
                         str(bundle), "--count", "2", "--parallelism", "8"]) == 0
        return json.loads(bundle.read_text(encoding="utf-8"))["collections"]

    recorder = RecordingProvider(ArrivalOrder())
    monkeypatch.setattr(cli, "CannedProvider", lambda: recorder)
    recorded = generate("recorded", ["--provider", "mock"])
    assert len(recorded) == 40
    transcript = tmp_path / "transcript.jsonl"
    recorder.transcript.save(str(transcript))
    for attempt in range(3):
        replay = ["--provider", "replay", "--transcript", str(transcript)]
        replayed = generate(f"replayed{attempt}", replay)
        assert [qid for qid in recorded if replayed[qid] != recorded[qid]] == []


def test_a_recording_replays_any_subset_of_its_questions_in_any_order(tmp_path, monkeypatch):
    # questions share the canned strategies' reference prompt, so the recorded
    # collections depend on the order in which the questions' calls arrived
    places = ["Eiffel Tower", "Empire State Building", "Golden Gate Bridge", "Taj Mahal"]
    pairs = [(adj, a, b) for adj in ("tall", "old") for a in places for b in places if a != b]
    rows = [{"question_id": f"q{i}", "question": f"Which is {adj}er, the {a} or the {b}?",
             "documents": [f"The {a} is {adj}. The {b} is {adj}er. Both are landmarks.", DOC],
             "gold_answers": [b]}
            for i, (adj, a, b) in enumerate(pairs)]
    assert len(rows) == 24

    def corpus(name, subset):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in subset), encoding="utf-8")
        return str(path)

    bundle = str(tmp_path / "recorded-generate")  # the bundle that every answer run reads

    def run(command, name, provider_args, corpus_path):
        """The command's bundle collections or run-log lines, by question id."""
        out = tmp_path / name
        outputs = {"generate": ["--collection", str(out), "--count", "2"],
                   "answer": ["--collection", bundle, "--run-log", str(out)]}[command]
        assert cli.main([command, *provider_args, "--corpus", corpus_path, "--parallelism", "3", *outputs]) == 0
        text = out.read_text(encoding="utf-8")
        if command == "generate":
            return json.loads(text)["collections"]
        return {json.loads(line)["question_id"]: line for line in text.splitlines()}

    whole = corpus("whole", rows)
    recorded, transcripts = {}, {}
    for command in ("generate", "answer"):
        recorder = RecordingProvider(ArrivalOrder())
        monkeypatch.setattr(cli, "CannedProvider", lambda: recorder)
        recorded[command] = run(command, f"recorded-{command}", ["--provider", "mock"], whole)
        transcripts[command] = str(tmp_path / f"{command}.transcript.jsonl")
        recorder.transcript.save(transcripts[command])
    assert len(recorded["generate"]) == len(recorded["answer"]) == 24

    for name, subset in (("reversed", rows[::-1]), ("one", rows[7:8])):
        for command in ("generate", "answer"):
            replay = ["--provider", "replay", "--transcript", transcripts[command]]
            replayed = run(command, f"{name}-{command}", replay, corpus(name, subset))
            assert replayed == {row["question_id"]: recorded[command][row["question_id"]] for row in subset}


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
