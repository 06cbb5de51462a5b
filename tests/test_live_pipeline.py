"""generate then answer over the live provider, against a loopback endpoint that answers each prompt as
the mock does and reports no usage, give the mock's bundle collections and run log at any parallelism.
Faults the endpoint injects change that only as predicted: a retried one changes no output, and a
refused prompt fails exactly the questions that send it, which a rerun then resumes."""

from __future__ import annotations

import collections
import hashlib
import json
import re
import threading
from importlib import resources as package_files
from typing import NamedTuple

import pytest

from skillpath import canned, cli, providers
from skillpath.cli import main

from conftest import STAGES, canned_completion

PLACES = ["Eiffel Tower", "Empire State Building", "Mount Everest", "Lake Victoria"]
PEOPLE = ["Marie Curie", "Isaac Newton", "Ada Lovelace"]


def corpus_rows():
    """24 questions the tagger finds entities in, and one with none, which fails generate and answer."""
    rows = []
    for i, (place, person) in enumerate(zip(PLACES * 6, PEOPLE * 8)):
        other = PLACES[(i + 1) % len(PLACES)]
        question = [f"Which is older, the {place} or the {other}?",
                    f"When did {person} first visit the {place}?",
                    f"Which is taller, the {other} or the {place}?"][i % 3]
        documents = [f"The {place} was finished in {1880 + i}. {person} wrote about it twice.",
                     f"The {other} is {100 + 10 * i} metres tall. It was finished later."]
        rows.append({"question_id": f"q{i}", "question": question, "documents": documents,
                     "gold_answers": [f"the {place}"], "gold_sentence_ids": [[0, 0]]})
    rows.append({"question_id": "none", "question": "Why is it so?", "documents": ["It is so."],
                 "gold_answers": ["so"]})
    return rows


def argv(tmp_path, command, provider, parallelism):
    """The arguments of generate or answer over the corpus, with outputs in the folder of provider and N."""
    out = tmp_path / f"{provider}-{parallelism}"
    out.mkdir(exist_ok=True)
    common = ["--provider", provider, "--corpus", str(tmp_path / "corpus.jsonl"), "--parallelism", str(parallelism),
              "--collection", str(out / "bundle.json")]
    return [command, *common, *(["--count", "2"] if command == "generate" else ["--run-log", str(out / "run.jsonl")])]


def collections_of(out):
    """The collections of the bundle in the folder out."""
    with open(out / "bundle.json", encoding="utf-8") as fh:
        return json.load(fh)["collections"]


def run(tmp_path, capsys, provider, parallelism):
    """Exit codes, stderr, bundle collections and run-log lines less latency_ms, of generate then answer."""
    codes = tuple(main(argv(tmp_path, command, provider, parallelism)) for command in ("generate", "answer"))
    out = tmp_path / f"{provider}-{parallelism}"
    with open(out / "run.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    for line in lines:
        del line["latency_ms"]
    return codes, capsys.readouterr().err.replace(str(out), "<out>"), collections_of(out), lines


def failures(err):
    """(command, question id) of each failed question that stderr reports."""
    return set(re.findall(r"^\[(\w+)\] question (\S+): ", err, re.M))


def prompt_of(body):
    """The prompt of a chat-completions request body."""
    return json.loads(body)["messages"][0]["content"]


def prompts_received(endpoint, since=0):
    """The prompts of the requests the endpoint received, from its request `since` on, with their counts."""
    return collections.Counter(prompt_of(body) for _, _, body in endpoint.received[since:])


class Sending(canned.CannedProvider):
    """The canned mock, keeping the prompts each question sends, in order."""

    def __init__(self):
        super().__init__()
        self.sent = collections.defaultdict(list)

    def _complete(self, request):
        (question_id,) = providers._scope.get()  # the scope cli._run_questions opens for the question
        self.sent[question_id].append(request.prompt)
        return super()._complete(request)


class MockRun(NamedTuple):
    outputs: tuple  # as run() returns them
    generate: dict  # question id -> the prompts the question sent in generate, in order
    answer: dict  # the same for answer

    def prompts(self, sent=None):
        """The prompts of the lists in `sent`, all that the mock was sent by default, with their counts."""
        lists = [*self.generate.values(), *self.answer.values()] if sent is None else sent
        return collections.Counter(prompt for prompts in lists for prompt in prompts)


@pytest.fixture
def mock(tmp_path, capsys, monkeypatch):
    """The corpus, and the mock's run of generate then answer on it at N = 1."""
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in corpus_rows())
    backends = []

    def backend():
        backends.append(Sending())
        return backends[-1]

    monkeypatch.setattr(cli, "CannedProvider", backend)
    outputs = run(tmp_path, capsys, "mock", 1)
    return MockRun(outputs, *(backend.sent for backend in backends))


def picked(prompt, salt, one_in):
    """Whether the hash of the prompt picks it, for about one prompt in `one_in`."""
    return int.from_bytes(hashlib.sha256(f"{salt}:{prompt}".encode("utf-8")).digest()[:4], "big") % one_in == 0


def test_the_stage_table_names_every_prompt_template_and_every_canned_stage():
    prompts = package_files.files("skillpath").joinpath("prompts")
    templates = {item.name.removesuffix(".txt") for item in prompts.iterdir()}
    assert set(STAGES) == templates
    assert set(STAGES.values()) == set(canned._HANDLERS)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_live_gives_the_mock_outputs(tmp_path, capsys, live_endpoint, mock, parallelism):
    live_endpoint.reply = canned_completion
    assert run(tmp_path, capsys, "live", parallelism) == mock.outputs
    # each question but the one with no entity was answered; it failed both commands alike
    codes, err, bundle, lines = mock.outputs
    assert codes == (1, 1) and len(bundle) == len(lines) == 24
    assert failures(err) == {("generate", "none"), ("answer", "none")}
    # one request per mock call: no retry, and no call the mock did not make
    assert prompts_received(live_endpoint) == mock.prompts()


# faults the live provider retries: two statuses, and a connection closed before any reply byte
TRANSIENT = ((503, "busy"), (429, "slow down"), b"")


@pytest.mark.parametrize("parallelism", [1, 4])
def test_retried_faults_leave_the_mock_outputs(tmp_path, capsys, monkeypatch, live_endpoint, mock, parallelism):
    chosen = sorted(prompt for prompt in mock.prompts() if picked(prompt, "transient", 4))
    faults = {prompt: TRANSIENT[i % len(TRANSIENT)] for i, prompt in enumerate(chosen)}
    pending, lock = dict(faults), threading.Lock()

    def reply(body):
        with lock:  # a fault goes to the first arrival of its prompt only
            fault = pending.pop(prompt_of(body), None)
        return canned_completion(body) if fault is None else fault

    live_endpoint.reply = reply
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "1")
    assert run(tmp_path, capsys, "live", parallelism) == mock.outputs
    assert len(faults) > len(TRANSIENT) and pending == {}
    # the mock's requests, and one retry of each faulted one
    assert prompts_received(live_endpoint) == mock.prompts() + collections.Counter(faults.keys())


@pytest.mark.parametrize("parallelism", [1, 4])
def test_refused_prompts_fail_the_predicted_questions_and_a_rerun_resumes_the_rest(tmp_path, capsys, monkeypatch,
                                                                                   live_endpoint, mock, parallelism):
    refused = {prompt for prompt in mock.prompts() if picked(prompt, "terminal", 16)}

    def until_refused(prompts):
        """A question's prompts up to its first refused one, after which it sends none."""
        for n, prompt in enumerate(prompts, 1):
            if prompt in refused:
                return prompts[:n]
        return prompts

    _, err, bundle, lines = mock.outputs
    failed_generate = {qid for _, qid in failures(err)} | {
        qid for qid, prompts in mock.generate.items() if refused.intersection(prompts)}
    failed_answer = failed_generate | {qid for qid, prompts in mock.answer.items() if refused.intersection(prompts)}
    assert 1 < len(failed_generate) < len(failed_answer) < len(corpus_rows())

    live_endpoint.reply = lambda body: (400, "refused") if prompt_of(body) in refused else canned_completion(body)
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "1")
    codes, live_err, live_bundle, live_lines = run(tmp_path, capsys, "live", parallelism)
    assert codes == (1, 1)
    assert failures(live_err) == ({("generate", qid) for qid in failed_generate}
                                  | {("answer", qid) for qid in failed_answer})
    assert live_bundle == {qid: stored for qid, stored in bundle.items() if qid not in failed_generate}
    assert live_lines == [line for line in lines if line["question_id"] not in failed_answer]
    # a refusal is not retried, and its question sends nothing after it
    assert prompts_received(live_endpoint) == mock.prompts(
        [until_refused(prompts) for prompts in mock.generate.values()]
        + [until_refused(prompts) for qid, prompts in mock.answer.items() if qid not in failed_generate])

    # with the faults off, a rerun sends only the requests of the questions the checkpoint does not hold
    since = len(live_endpoint.received)
    live_endpoint.reply = canned_completion
    assert main(argv(tmp_path, "generate", "live", parallelism)) == 1
    assert prompts_received(live_endpoint, since) == mock.prompts(
        [mock.generate[qid] for qid in failed_generate if qid in mock.generate])
    assert collections_of(tmp_path / f"live-{parallelism}") == bundle
