from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from skillpath import cli, providers, resources
from skillpath.canned import _HANDLERS, CannedProvider, canned_reply
from skillpath.cli import ConfigError, _resolve_config, build_parser, main
from skillpath.collection import (
    COLLECTION_VERSION,
    build_collection,
    collection_to_record,
    persist_bundle,
    restore_bundle,
)
from skillpath.providers import CompletionResult, MockProvider, RecordingProvider, TokenUsage, Transcript
from skillpath.skills import ReasoningSkill

from conftest import canned_completion, make_example, stage_of

EIFFEL = "Which is taller, the Eiffel Tower or the Empire State Building?"
EIFFEL_DOC = (
    "The Eiffel Tower stands 330 metres tall. "
    "The Empire State Building stands 443 metres tall. "
    "Both are famous landmarks."
)


def write_corpus(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def eiffel_row(qid="q1", question=EIFFEL):
    return {
        "question_id": qid,
        "question": question,
        "documents": [EIFFEL_DOC],
        "gold_answers": ["the Empire State Building"],
        "gold_sentence_ids": [[0, 1]],
    }


def log_line(tokens=10, **changes):
    """A run-log line for eiffel_row(); a change to None drops that key."""
    doc = {
        "question_id": "q1",
        "answer": "the Empire State Building",
        "completion": "<answer>the Empire State Building</answer>",
        "usage": {"prompt_tokens": tokens - 1, "completion_tokens": 1, "total_tokens": tokens},
        "latency_ms": 1.0,
    }
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


def marker_collection(question="a question generate would never write"):
    """The stored record of a one-example collection that generate would never build."""
    example = make_example([ReasoningSkill.ABDUCTIVE], question=question)
    return collection_to_record(build_collection([example]))


def resolve(argv):
    return _resolve_config(build_parser().parse_args(argv))


@pytest.fixture
def corpus_path(tmp_path):
    return write_corpus(tmp_path / "corpus.jsonl", [eiffel_row()])


@pytest.fixture
def mock_calls(monkeypatch):
    """The tag of every request the CLI's mock provider answers, in order."""
    calls = []

    class Counting(CannedProvider):
        def _complete(self, request):
            calls.append(request.tag)
            return super()._complete(request)

    monkeypatch.setattr(cli, "CannedProvider", Counting)
    return calls


def test_flag_beats_config_file(tmp_path, corpus_path):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"parallelism": 2, "provider": "mock"}), encoding="utf-8")
    base = [
        "generate",
        "--corpus", corpus_path,
        "--collection", str(tmp_path / "out.json"),
        "--config", str(config_file),
    ]
    assert resolve(base + ["--parallelism", "4"]).parallelism == 4
    assert resolve(base).parallelism == 2


def test_config_file_that_repeats_a_key_exits_2_before_any_call(tmp_path, corpus_path, mock_calls, capsys):
    config_file = tmp_path / "conf.json"
    config_file.write_text('{"count": 0, "count": 2}', encoding="utf-8")
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "out.json"), "--config", str(config_file)])
    assert code == 2
    assert f"{config_file}: an object repeats the key 'count'" in capsys.readouterr().err
    assert mock_calls == []


def test_config_file_with_a_huge_integer_exits_2_before_any_call(tmp_path, corpus_path, mock_calls, capsys):
    config_file = tmp_path / "conf.json"
    config_file.write_text('{"count": ' + "9" * 5000 + "}", encoding="utf-8")
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "out.json"), "--config", str(config_file)])
    assert code == 2
    assert f"{config_file}: unreadable JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err
    assert mock_calls == []


def test_config_file_that_names_a_setting_twice_exits_2(tmp_path, corpus_path, capsys):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"run-log": "x.jsonl", "run_log": "r.jsonl"}), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["eval", "--config", str(config_file), "--corpus", corpus_path, "--report", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[eval] config file {config_file}: ") and "'run-log'" in err and "'run_log'" in err
    assert not report_path.exists()


@pytest.mark.parametrize("setting, value, problem", [
    ("provider", "full", "unknown provider 'full'"),
    ("parallelism", 0, "parallelism must be at least 1"),
    ("count", 0, "count must be at least 1"),
    ("delta", 11, "delta must lie in [1, 10], got 11"),
])
def test_a_bad_value_from_a_config_file_is_named_with_the_file(tmp_path, corpus_path, capsys, setting, value,
                                                               problem):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"provider": "mock", setting: value}), encoding="utf-8")
    argv = ["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json")]
    assert main([*argv, "--config", str(config_file)]) == 2
    assert capsys.readouterr().err == f"[generate] config file {config_file}: {problem}\n"
    if setting != "provider":  # a flag's unknown choice is argparse's to refuse
        # a flag's value is its own, so the message names no file
        assert main([*argv, "--config", str(config_file), f"--{setting}", str(value)]) == 2
        assert capsys.readouterr().err == f"[generate] {problem}\n"


# settings come from flags and a config file only; the environment names none of them
def test_the_environment_sets_no_setting(tmp_path, corpus_path, monkeypatch):
    monkeypatch.setenv("SKILLPATH_PARALLELISM", "5")
    argv = ["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json"), "--provider", "mock"]
    assert resolve(argv).parallelism == 1


def test_a_setting_the_command_does_not_read_named_twice_still_exits_2(tmp_path, corpus_path, capsys):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"baseline-log": "x.jsonl", "baseline_log": "b.jsonl"}), encoding="utf-8")
    collection = tmp_path / "o.json"
    code = main(["generate", "--config", str(config_file), "--corpus", corpus_path, "--collection",
                 str(collection), "--provider", "mock"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[generate] config file {config_file}: ") and "'baseline-log'" in err
    assert not collection.exists()


def test_config_file_rejects_unknown_keys(tmp_path, corpus_path):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"providr": "mock"}), encoding="utf-8")
    with pytest.raises(ConfigError):
        resolve(["generate", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "o.json"), "--config", str(config_file)])


def test_random_selection_requires_seed(tmp_path, corpus_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text("{}", encoding="utf-8")
    argv = ["answer", "--corpus", corpus_path, "--collection", str(bundle),
            "--run-log", str(tmp_path / "log.jsonl"), "--provider", "mock",
            "--select-mode", "random"]
    with pytest.raises(ConfigError):
        resolve(argv)
    resolved = resolve(argv + ["--seed", "3"])
    assert resolved.seed == 3


def test_replay_requires_transcript(tmp_path, corpus_path):
    with pytest.raises(ConfigError):
        resolve(["generate", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "o.json"), "--provider", "replay"])


def test_delta_bounds_checked(tmp_path, corpus_path):
    with pytest.raises(ConfigError):
        resolve(["generate", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "o.json"), "--delta", "11"])


def test_generate_without_a_corpus_exits_2_naming_the_flag(tmp_path, mock_calls, capsys):
    assert main(["generate", "--provider", "mock", "--collection", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "[generate] --corpus is required for generate\n"
    assert mock_calls == []
    assert os.listdir(tmp_path) == []


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["generate", "--provider", "mock",
                 "--corpus", str(tmp_path / "nope.jsonl"),
                 "--collection", str(tmp_path / "o.json")])
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_generate_answer_eval_with_mock_provider(tmp_path, corpus_path, capsys):
    bundle_path = str(tmp_path / "bundle.json")
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "2", "--delta", "7"])
    assert code == 0
    assert os.path.exists(bundle_path)
    assert os.path.exists(bundle_path + ".config.json")
    assert not os.path.exists(bundle_path + ".journal.jsonl")
    bundle = restore_bundle(bundle_path)
    assert "q1" in bundle
    assert len(bundle["q1"].examples) >= 1

    run_log = str(tmp_path / "run.jsonl")
    code = main(["answer", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--run-log", run_log])
    assert code == 0
    lines = [json.loads(l) for l in Path(run_log).read_text(encoding="utf-8").splitlines() if l.strip()]
    assert len(lines) == 1
    line = lines[0]
    assert line["question_id"] == "q1"
    for key in ("question", "answer", "completion", "focused_segments", "prompt",
                "selected_example_id", "match", "usage", "latency_ms"):
        assert key in line
    assert line["usage"]["total_tokens"] > 0
    assert line["match"]["mode"] == "full"
    assert line["selected_example_id"] == line["match"]["selected_index"]

    report_path = str(tmp_path / "report.json")
    code = main(["eval", "--corpus", corpus_path, "--run-log", run_log,
                 "--report", report_path])
    assert code == 0
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    for key in ("rouge_l_mean", "em_mean", "hits", "error", "retrace_rate",
                "token_mean", "time_mean_ms", "n"):
        assert key in report
    assert report["n"] == 1
    tsv = Path(report_path + ".records.tsv").read_text(encoding="utf-8").splitlines()
    assert tsv[0].split("\t")[0] == "question_id"
    assert len(tsv) == 2
    out = capsys.readouterr().out
    assert "ROUGE-L:" in out
    assert "Retrace:" in out


# sha256 of every output of a mock generate, answer and eval on the fixture corpus;
# two runs that agree with each other could still both write a record in a new shape
PINNED_OUTPUTS = {
    "bundle.json": "a97336d2c669ad5cd0804a8154278af4a6531427c42f2299646aa354924eba97",
    "generate.transcript.jsonl": "17be75457bbda556e32358d07e1eb97705248fcb5224053f3712f9458c552e93",
    "run.jsonl": "61f305472a4342f962ea17b54885e8d1566090a30d502c51829e695d5dd7bcc6",
    "answer.transcript.jsonl": "fa2707945254b85913fa7c25977260ad7565bcd76d62792db5adbf10fb728797",
    "report.json": "97a12e92913049ffd19a1f30474063896a92047db810a09c26dc5e71d7252367",
    "report.json.records.tsv": "fae0bf256cb0756de0f23dbed7384e63a92eee441fa510655bbbd4452f52df90",
}


def _pinned_mock_run(corpus, out, monkeypatch, names):
    """sha256 of each named output of a mock generate, answer and eval on corpus."""
    recorders = []

    def recorded():
        recorders.append(RecordingProvider(CannedProvider()))
        return recorders[-1]

    monkeypatch.setattr(cli, "CannedProvider", recorded)
    bundle, run_log, report = (str(out / name) for name in ("bundle.json", "run.jsonl", "report.json"))
    for command, argv in [("generate", ["--provider", "mock", "--collection", bundle]),
                          ("answer", ["--provider", "mock", "--collection", bundle, "--run-log", run_log]),
                          ("eval", ["--run-log", run_log, "--report", report])]:
        assert main([command, "--corpus", str(corpus), *argv]) == 0
        if command != "eval":
            recorders[-1].transcript.save(str(out / f"{command}.transcript.jsonl"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_a_mock_run_on_the_fixture_corpus_writes_the_pinned_bytes(tmp_path, fixtures_dir, monkeypatch):
    corpus = os.path.join(fixtures_dir, "corpus.jsonl")
    assert _pinned_mock_run(corpus, tmp_path, monkeypatch, PINNED_OUTPUTS) == PINNED_OUTPUTS



# gen mode -> the examples each question of the fixture corpus keeps, the calls of one question, the bundle's sha256
SYNTHESIS_CALLS = {
    "guided-fill": ([1, 1], ["substitution", "similarity", "strategy", "reference"], PINNED_OUTPUTS["bundle.json"]),
    "random-fill": ([5, 5], ["similarity", "strategy", "reference"],
                    "e9ba5f8643bbafe83973a4a9b3af350090818443b4023043d745caa5d262a870"),
}


@pytest.mark.parametrize("mode", SYNTHESIS_CALLS)
def test_generate_makes_one_strategy_and_one_reference_call_per_question(tmp_path, fixtures_dir, mock_calls, mode):
    kept, calls, digest = SYNTHESIS_CALLS[mode]
    bundle = tmp_path / "bundle.json"
    assert main(["generate", "--provider", "mock", "--corpus", os.path.join(fixtures_dir, "corpus.jsonl"),
                 "--collection", str(bundle), "--gen-mode", mode]) == 0
    assert [len(collection["examples"]) for collection in json.loads(bundle.read_bytes())["collections"].values()] == kept
    assert mock_calls == calls * 2
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() == digest


def test_a_recorded_answer_stores_no_prompt(tmp_path, fixtures_dir, monkeypatch):
    # a stored line holds a reply and the question and stage that asked for it, never the prompt
    # or the documents the prompt carried
    sent, recorders = [], []

    def keeping_prompts(request):
        sent.append(request.prompt)
        return canned_reply(request)

    def recorded():
        recorders.append(RecordingProvider(MockProvider(keeping_prompts)))
        return recorders[-1]

    monkeypatch.setattr(cli, "CannedProvider", recorded)
    assert main(["answer", "--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl", "--collection",
                 f"{fixtures_dir}/collection.json", "--run-log", str(tmp_path / "run.jsonl")]) == 0
    recorders[0].transcript.save(str(tmp_path / "answer.transcript.jsonl"))
    lines = (tmp_path / "answer.transcript.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(sent) > 1
    rows = [json.loads(line) for line in Path(fixtures_dir, "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    documents = ["\n\n".join(row["documents"]) for row in rows]
    # each text as a JSON line writes it, its line breaks escaped
    written = [json.dumps(text, ensure_ascii=False)[1:-1] for text in [*sent, *documents]]
    assert not [(line, text) for line in lines for text in written if text in line]

# documents whose sentences hold a tab, an NBSP, a double space, "\r\n", "ß" and "İ": the
# answerer matches their extraction replies through the full sentence-key index
IRREGULAR_CORPUS = [
    {"question_id": "q1", "question": "How long is the Hauptstra\u00dfe in Berlin?",
     "documents": ["The Hauptstra\u00dfe\tin Berlin is  two kilometres long. It was paved in 1901.",
                   "Berlin is the capital of Germany."],
     "gold_answers": ["two kilometres"], "gold_sentence_ids": [[0, 0]]},
    {"question_id": "q2", "question": "Which city lies on the Bosphorus?",
     "documents": ["\u0130stanbul\u00a0lies on the Bosphorus.\r\nIt was once called Constantinople.",
                   "The Bosphorus  joins the Black Sea to the Sea of Marmara."],
     "gold_answers": ["\u0130stanbul"], "gold_sentence_ids": [[0, 0]]},
    {"question_id": "q3", "question": "When was the Golden Gate Bridge opened?",
     "documents": ["The Golden Gate Bridge opened in 1937.\r\nIts main span is 1280 metres long.",
                   "San Francisco lies\tnorth of San Jose. The STRASSE sign is a joke."],
     "gold_answers": ["1937"], "gold_sentence_ids": [[0, 0]]},
]
# sha256 of the run log and the report of a mock run on IRREGULAR_CORPUS
IRREGULAR_PINNED = {
    "run.jsonl": "35a4205994dd61ebb2200d31ecd4fdd2615f953ad136da8ed85b502d492fc0da",
    "report.json": "d1ab25385dcfafef9cbce27482060694c315758d92a80ab8685feafa94e16a37",
}


def test_a_mock_run_on_irregular_whitespace_writes_the_pinned_bytes(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus.jsonl", IRREGULAR_CORPUS)
    assert _pinned_mock_run(corpus, tmp_path, monkeypatch, IRREGULAR_PINNED) == IRREGULAR_PINNED


def test_generate_reports_per_question_failures(tmp_path, capsys):
    corpus = write_corpus(
        tmp_path / "corpus.jsonl",
        [eiffel_row("q1"), eiffel_row("q2", question="?!?")],
    )
    bundle_path = str(tmp_path / "bundle.json")
    code = main(["generate", "--provider", "mock", "--corpus", corpus,
                 "--collection", bundle_path, "--count", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "[generate] question q2" in err
    # the good question still ships; a mock run keeps no journal, as its calls cost nothing
    assert set(restore_bundle(bundle_path)) == {"q1"}
    assert sorted(os.listdir(tmp_path)) == ["bundle.json", "bundle.json.config.json", "corpus.jsonl"]


def test_a_value_error_in_answer_is_raised_after_every_question_ran(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q0"), eiffel_row("q1")])
    bundle_path = str(tmp_path / "bundle.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus,
                 "--collection", bundle_path, "--count", "1"]) == 0
    answers = []

    class Backend(CannedProvider):
        def _complete(self, request):
            if request.tag == "answer":
                answers.append(request)
                raise ValueError(f"bug {len(answers)}")
            return super()._complete(request)

    monkeypatch.setattr(cli, "CannedProvider", Backend)
    run_log = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="^bug 1$"):
        main(["answer", "--provider", "mock", "--corpus", corpus,
              "--collection", bundle_path, "--run-log", str(run_log)])
    assert len(answers) == 2
    assert not run_log.exists()


def test_a_question_whose_candidates_all_score_low_fails_with_no_candidates(tmp_path, corpus_path,
                                                                              monkeypatch, capsys):
    class LowScores(CannedProvider):
        def _complete(self, request):
            result = super()._complete(request)
            if request.tag == "similarity":  # every candidate's item scored 1
                return result._replace(text=result.text.replace("Score (1-10): 10", "Score (1-10): 1"))
            return result

    monkeypatch.setattr(cli, "CannedProvider", LowScores)
    bundle_path = tmp_path / "bundle.json"
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(bundle_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert "[generate] question q1: no candidate survived the similarity filter for question 'q1'" in err
    assert not bundle_path.exists()
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl"]


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("generate", "similarity_scoring", "Compare $original_question with $candidate_questions: $ 10"),
        ("generate", "reference_document", "Notes on $subquestions and $missing"),
        ("generate", "reference_document", "Notes on $subquestion"),
        ("generate", "similarity_scoring", "Compare $original_question with $candidate_question"),
        ("generate", "strategy_generation", "Skills: $skill_catalog\nPlan the steps of $question"),
        ("generate", "similarity_scoring", ""),
        ("answer", "segment_extraction", "Pick from $document for $skill_name, at 5$"),
        ("answer", "segment_extraction", ""),
    ],
    ids=["generate-stray-dollar", "generate-missing-slot", "generate-one-step-slot", "generate-one-candidate-slot",
         "generate-one-candidate-strategy-slot", "generate-empty", "answer-stray-dollar", "answer-empty"],
)
def test_a_faulty_prompt_template_override_fails_every_question(tmp_path, monkeypatch, capsys,
                                                                 uncached_loaders, command, name, text):
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q1"), eiffel_row("q2")])
    bundle = str(tmp_path / "bundle.json")
    if command == "answer":
        assert main(["generate", "--provider", "mock", "--corpus", corpus,
                     "--collection", bundle, "--count", "1"]) == 0
        resources.load_prompt.cache_clear()
    overrides = tmp_path / "prompts"
    overrides.mkdir()
    (overrides / f"{name}.txt").write_text(text, encoding="utf-8")
    monkeypatch.setenv(resources.PROMPT_DIR_ENV, str(overrides))
    capsys.readouterr()
    outputs = {"generate": ["--collection", bundle, "--count", "1"],
               "answer": ["--collection", bundle, "--run-log", str(tmp_path / "run.jsonl")]}[command]
    assert main([command, "--provider", "mock", "--corpus", corpus, *outputs]) == 1
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if line.startswith(f"[{command}] ")]
    assert [line.split(":")[0] for line in failed] == [f"[{command}] question q1", f"[{command}] question q2"]
    assert all(f"prompt template {name}.txt" in line for line in failed)
    assert "Traceback" not in err


# 6.0 equals 6 in Python, but it is not the JSON integer a version is
@pytest.mark.parametrize("header", [{"version": 1}, {"version": 2}, {"version": 3}, {"version": 4},
                                    {"version": 5}, {"version": 6}, {"version": 99}, {},
                                    {"version": float(providers.TRANSCRIPT_VERSION)}],
                         ids=["version-1", "version-2", "version-3", "version-4", "version-5", "version-6",
                              "version-99", "no-version", "version-float"])
def test_replay_of_a_transcript_of_another_version_exits_2_before_any_call(
    tmp_path, corpus_path, capsys, header
):
    bundle = str(tmp_path / "bundle.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle, "--count", "1"]) == 0
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps({"identity": {}, "entries": 0, **header}) + "\n",
                          encoding="utf-8")
    output = tmp_path / "replayed"
    for command, outputs in [("generate", ["--collection", str(output), "--count", "1"]),
                             ("answer", ["--collection", bundle, "--run-log", str(output)])]:
        capsys.readouterr()
        code = main([command, "--provider", "replay", "--transcript", str(transcript),
                     "--corpus", corpus_path, *outputs])
        assert code == 2
        err = capsys.readouterr().err
        assert str(transcript) in err and f"version {header.get('version')!r}" in err
        assert f"[{command}] question" not in err
        assert not output.exists()


@pytest.mark.parametrize("header", [{"identity": "mock"}, {"identity": ["model", "m"]}],
                         ids=["identity-string", "identity-list"])
def test_replay_of_a_transcript_with_a_header_of_the_wrong_type_exits_2_before_any_call(
    tmp_path, corpus_path, capsys, header
):
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text(json.dumps({"version": providers.TRANSCRIPT_VERSION, "entries": 0, **header}) + "\n",
                          encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    code = main(["generate", "--provider", "replay", "--transcript", str(transcript),
                 "--corpus", corpus_path, "--collection", str(bundle), "--count", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(transcript) in err and f"identity must be an object, got {header['identity']!r}" in err
    assert "[generate] question" not in err
    assert not bundle.exists()


def test_a_transcript_whose_header_holds_a_created_at_still_replays(tmp_path, fixtures_dir):
    # transcripts were once stamped with the time they were written; the stamp is an ignored key
    lines = Path(fixtures_dir, "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    header = {**json.loads(lines[0]), "created_at": "2026-01-01T00:00:00Z"}
    stamped = tmp_path / "stamped.jsonl"
    stamped.write_text(json.dumps(header, sort_keys=True) + "\n" + "".join(lines[1:]), encoding="utf-8")
    logs = []
    for transcript in (Path(fixtures_dir, "transcript.jsonl"), stamped):
        logs.append(tmp_path / f"{transcript.stem}.run.jsonl")
        assert main(["answer", "--provider", "replay", "--transcript", str(transcript),
                     "--corpus", f"{fixtures_dir}/corpus.jsonl",
                     "--collection", f"{fixtures_dir}/collection.json", "--run-log", str(logs[-1])]) == 0
    assert logs[0].read_bytes() == logs[1].read_bytes()


def test_answer_flags_questions_missing_from_bundle(tmp_path, corpus_path, capsys):
    bundle_path = str(tmp_path / "bundle.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "1"]) == 0
    corpus2 = write_corpus(
        tmp_path / "corpus2.jsonl", [eiffel_row("q1"), eiffel_row("q9")]
    )
    run_log = str(tmp_path / "run.jsonl")
    code = main(["answer", "--provider", "mock", "--corpus", corpus2,
                 "--collection", bundle_path, "--run-log", run_log])
    assert code == 1
    err = capsys.readouterr().err
    assert f"[answer] question q9: bundle {bundle_path} holds no collection for question 'q9'" in err
    assert "run log" not in err
    lines = [json.loads(l) for l in Path(run_log).read_text(encoding="utf-8").splitlines() if l.strip()]
    assert [l["question_id"] for l in lines] == ["q1"]


def test_eval_rejects_stray_question_ids(tmp_path, corpus_path, capsys):
    run_log = tmp_path / "run.jsonl"
    run_log.write_text(
        json.dumps({"question_id": "ghost", "answer": "x", "completion": "x",
                    "usage": {"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2}})
        + "\n",
        encoding="utf-8",
    )
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(run_log),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_eval_reports_reduction_against_baseline(tmp_path, corpus_path, capsys):
    current = tmp_path / "run.jsonl"
    current.write_text(json.dumps(log_line(50)) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(json.dumps(log_line(100)) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(current),
                 "--report", str(report_path), "--baseline-log", str(baseline)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["baseline_token_mean"] == pytest.approx(100.0)
    assert report["reduction_vs_baseline"] == pytest.approx(0.5)
    assert "reduction vs baseline: 50.0%" in capsys.readouterr().out


def test_eval_against_a_baseline_of_zero_tokens_exits_2(tmp_path, corpus_path, capsys):
    current = tmp_path / "run.jsonl"
    current.write_text(json.dumps(log_line(50)) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.jsonl"
    zero = {"prompt_tokens": 0, "completion_tokens": 0, "total_tokens": 0}
    baseline.write_text(json.dumps(log_line(usage=zero)) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(current),
                 "--report", str(report_path), "--baseline-log", str(baseline)])
    assert code == 2
    assert f"[eval] baseline log {baseline} " in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("log", ["run", "baseline"])
def test_eval_of_an_empty_log_exits_2_naming_it(tmp_path, corpus_path, capsys, log):
    logs = {name: tmp_path / f"{name}.jsonl" for name in ("run", "baseline")}
    for name, path in logs.items():
        path.write_text("\n" if name == log else json.dumps(log_line()) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(logs["run"]),
                 "--report", str(report_path), "--baseline-log", str(logs["baseline"])])
    assert code == 2
    assert f"[eval] {log} log {logs[log]} has no lines" in capsys.readouterr().err
    assert not report_path.exists()


def test_live_transport_failures_surface_per_question(tmp_path, corpus_path, monkeypatch, capsys):
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "0")
    bundle_path = str(tmp_path / "bundle.json")
    code = main(["generate", "--provider", "live", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "1"])
    assert code == 1
    assert "[generate] question q1" in capsys.readouterr().err


def test_parallel_generate_matches_serial(tmp_path, corpus_path):
    corpus = write_corpus(
        tmp_path / "corpus.jsonl",
        [eiffel_row("q1"), eiffel_row("q2"), eiffel_row("q3")],
    )
    serial = str(tmp_path / "serial.json")
    parallel = str(tmp_path / "parallel.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus,
                 "--collection", serial, "--count", "1"]) == 0
    assert main(["generate", "--provider", "mock", "--corpus", corpus,
                 "--collection", parallel, "--count", "1", "--parallelism", "3"]) == 0
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()


def test_config_snapshot_records_effective_settings(tmp_path, corpus_path):
    bundle_path = str(tmp_path / "bundle.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "2", "--delta", "8"]) == 0
    snapshot = json.loads(Path(bundle_path + ".config.json").read_text(encoding="utf-8"))
    assert snapshot["command"] == "generate"
    assert snapshot["config"]["provider"] == "mock"
    assert snapshot["config"]["delta"] == 8


def test_failed_config_snapshot_write_exits_2(tmp_path, corpus_path, capsys):
    run_log = tmp_path / "run.jsonl"
    run_log.write_text(
        json.dumps({"question_id": "q1", "answer": "x", "completion": "x",
                    "usage": {"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2}})
        + "\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    os.mkdir(str(report_path) + ".config.json")
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(run_log),
                 "--report", str(report_path)])
    assert code == 2
    assert "config snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "answer", "eval"])
def test_a_config_snapshot_path_that_is_a_directory_exits_2_before_any_call(tmp_path, corpus_path, mock_calls,
                                                                             capsys, command):
    bundle, run_log, report = (str(tmp_path / name) for name in ("bundle.json", "run.jsonl", "report.json"))
    argv = {"generate": ["--provider", "mock", "--collection", bundle, "--count", "1"],
            "answer": ["--provider", "mock", "--collection", bundle, "--run-log", run_log],
            "eval": ["--run-log", run_log, "--report", report]}
    for earlier in {"generate": [], "answer": ["generate"], "eval": ["generate", "answer"]}[command]:
        assert main([earlier, "--corpus", corpus_path, *argv[earlier]]) == 0
    output = {"generate": bundle, "answer": run_log, "eval": report}[command]
    os.mkdir(output + ".config.json")
    mock_calls.clear()
    capsys.readouterr()
    assert main([command, "--corpus", corpus_path, *argv[command]]) == 2
    assert "cannot write config snapshot" in capsys.readouterr().err
    assert mock_calls == []
    assert not os.path.exists(output)


def test_a_record_table_path_that_is_a_directory_exits_2_before_eval_writes(tmp_path, fixtures_dir, capsys):
    corpus = f"{fixtures_dir}/corpus.jsonl"
    run_log, report = tmp_path / "run.jsonl", tmp_path / "report.json"
    assert main(["answer", "--provider", "mock", "--corpus", corpus, "--collection",
                 f"{fixtures_dir}/collection.json", "--run-log", str(run_log)]) == 0
    os.mkdir(f"{report}.records.tsv")
    capsys.readouterr()
    assert main(["eval", "--corpus", corpus, "--run-log", str(run_log), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"[eval] cannot write record table {report}.records.tsv: it is a directory\n"
    assert not report.exists() and not os.path.exists(f"{report}.config.json")


def version_1_collection():
    """marker_collection() as bundle version 1 stored it: with n, freq_index and each example's mode."""
    stored = marker_collection()
    stored["examples"][0]["construction_mode"] = "guided_fill"
    return {**stored, "n": 1, "freq_index": {"abductive": 1}}


def test_answer_on_a_version_1_bundle_exits_2_before_any_call(tmp_path, corpus_path, mock_calls, capsys):
    bundle = tmp_path / "bundle.json"
    doc = {"version": 1, "created_at": "2026-01-01T00:00:00Z", "construction_mode": "guided_fill", "delta": 7,
           "collections": {"q1": version_1_collection()}}
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    run_log = tmp_path / "run.jsonl"
    code = main(["answer", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(bundle), "--run-log", str(run_log)])
    assert code == 2
    assert f"{bundle}: unsupported collection version 1" in capsys.readouterr().err
    assert mock_calls == []
    assert not run_log.exists()


def answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys, edit):
    """answer's exit code and stderr on the fixture bundle after edit(doc), and whether a run log was written."""
    doc = json.loads(Path(fixtures_dir, "collection.json").read_text(encoding="utf-8"))
    edit(doc)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    run_log = tmp_path / "run.jsonl"
    capsys.readouterr()
    code = main(["answer", "--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl",
                 "--collection", str(bundle), "--run-log", str(run_log)])
    return code, capsys.readouterr().err, run_log.exists()


# the objects of a stored collection whose fields are fixed: the collection, an example, a strategy
STORED_OBJECTS = {
    "collection": lambda collections: collections["q1"],
    "example": lambda collections: collections["q1"]["examples"][0],
    "strategy": lambda collections: collections["q1"]["examples"][0]["strategy"],
}


@pytest.mark.parametrize("level", STORED_OBJECTS)
def test_answer_on_a_bundle_with_an_unknown_field_exits_2_before_any_call(tmp_path, fixtures_dir, mock_calls,
                                                                          capsys, level):
    def edit(doc):
        STORED_OBJECTS[level](doc["collections"])["zz_unknown"] = 1

    code, err, logged = answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys, edit)
    assert code == 2
    assert f"{tmp_path / 'bundle.json'}[q1]: malformed collection: unknown field 'zz_unknown'" in err
    assert (mock_calls, logged) == ([], False)


@pytest.mark.parametrize("level, field", [("collection", "examples"), ("example", "answer"),
                                          ("strategy", "skills")])
def test_answer_on_a_bundle_with_a_missing_field_exits_2_before_any_call(tmp_path, fixtures_dir, mock_calls,
                                                                         capsys, level, field):
    def edit(doc):
        del STORED_OBJECTS[level](doc["collections"])[field]

    code, err, logged = answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys, edit)
    assert code == 2
    assert f"{tmp_path / 'bundle.json'}[q1]: malformed collection: missing field {field!r}" in err
    assert (mock_calls, logged) == ([], False)


def test_a_bundle_question_id_that_holds_a_line_break_is_named_on_one_line(tmp_path, fixtures_dir, mock_calls,
                                                                          capsys):
    code, err, logged = answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys,
                                                     lambda doc: doc["collections"].update({"a\nb": None}))
    assert code == 2
    assert err.splitlines() == [f"[answer] {tmp_path / 'bundle.json'}['a\\nb']: malformed collection:"
                                " collection must be an object, got None"]
    assert (mock_calls, logged) == ([], False)


def test_answer_on_a_bundle_without_collections_exits_2(tmp_path, fixtures_dir, mock_calls, capsys):
    code, err, logged = answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys,
                                                     lambda doc: doc.pop("collections"))
    assert code == 2
    assert err == f"[answer] {tmp_path / 'bundle.json'}: no collections table\n"
    assert (mock_calls, logged) == ([], False)


# bundles were once stamped with the time they were written; the stamp is one more ignored key
@pytest.mark.parametrize("extra", [{"created_at": "2026-01-01T00:00:00Z"}, {"zz_unknown": 1}],
                         ids=["created-at", "unknown"])
def test_a_bundle_with_another_top_level_key_is_read(tmp_path, fixtures_dir, capsys, extra):
    code, _, logged = answer_on_the_fixture_bundle(tmp_path, fixtures_dir, capsys, lambda doc: doc.update(extra))
    assert (code, logged) == (0, True)


# stored collections whose values only look right: no example, a string where
# a list of strings belongs, a list of numbers, a skill outside the taxonomy
LOOSE_COLLECTIONS = {
    "no-examples": lambda c: c.update(examples=[]),
    "docs-text": lambda c: c["examples"][0].update(reference_docs="r"),
    "docs-text-two-chars": lambda c: c["examples"][0].update(reference_docs="ab"),
    "docs-numbers": lambda c: c["examples"][0].update(reference_docs=[1]),
    "subquestions-text": lambda c: c["examples"][0]["strategy"].update(subquestions="s"),
    "subquestions-numbers": lambda c: c["examples"][0]["strategy"].update(subquestions=[1]),
    "skills-text": lambda c: c["examples"][0]["strategy"].update(skills="abductive"),
    "skill-unknown": lambda c: c["examples"][0]["strategy"].update(skills=["bogus"]),
}


def loose_collection(name):
    stored = marker_collection()
    LOOSE_COLLECTIONS[name](stored)
    return stored


@pytest.mark.parametrize("name", LOOSE_COLLECTIONS)
def test_answer_on_a_bundle_with_a_loosely_typed_collection_exits_2(tmp_path, corpus_path, capsys,
                                                                     name):
    bundle = tmp_path / "bundle.json"
    doc = {"version": COLLECTION_VERSION, "collections": {"q1": loose_collection(name)}}
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    run_log = tmp_path / "run.jsonl"
    code = main(["answer", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(bundle), "--run-log", str(run_log)])
    assert code == 2
    assert f"{bundle}[q1]: malformed collection" in capsys.readouterr().err
    assert not run_log.exists()


@pytest.mark.parametrize(
    "log, bad",
    [
        ("run", log_line(usage={"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 5})),
        ("run", [1, 2]),
        ("run", log_line(latency_ms="fast")),
        ("run", log_line(latency_ms=-50.0)),
        ("run", log_line(latency_ms=float("inf"))),  # written as Infinity; 1e999 reads the same
        ("run", log_line(answer=7)),
        ("run", log_line(completion=["x"])),
        ("run", log_line(usage=None)),
        ("run", log_line(usage=5)),
        ("run", log_line(usage={"prompt_tokens": "9", "completion_tokens": 1,
                                 "total_tokens": 10})),
        ("baseline", log_line(usage=None)),
        ("baseline", "just a string"),
        ("run", log_line(question_id=None)),
        ("run", log_line(answer=None)),
        ("run", log_line(completion=None)),
        ("baseline", log_line(question_id=None)),
        ("baseline", log_line(answer=None)),
        ("baseline", log_line(completion=None)),
        ("run", log_line(question_id="q9")),
        ("baseline", log_line(question_id="q9")),
    ],
    ids=["total-mismatch", "array", "latency-text", "negative-latency", "infinite-latency",
         "answer-number", "completion-list", "no-usage", "usage-number", "token-text", "baseline-no-usage",
         "baseline-string", "missing-question-id", "missing-answer", "missing-completion",
         "baseline-missing-question-id", "baseline-missing-answer", "baseline-missing-completion",
         "question-not-in-corpus", "baseline-question-not-in-corpus"],
)
def test_malformed_run_log_line_exits_2(tmp_path, capsys, log, bad):
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q0"), eiffel_row()])
    logs = {name: tmp_path / f"{name}.jsonl" for name in ("run", "baseline")}
    for name, path in logs.items():
        # another question first, so a bad line is never caught as a repeat
        lines = [log_line(question_id="q0"), bad] if name == log else [log_line()]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    code = main(["eval", "--corpus", corpus, "--run-log", str(logs["run"]),
                 "--report", str(tmp_path / "report.json"),
                 "--baseline-log", str(logs["baseline"])])
    assert code == 2
    assert f"[eval] {logs[log]}:2: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "config, env",
    [
        ({"delta": "7"}, {}),
        ({"parallelism": True}, {}),
        ({"seed": "x"}, {}),
        ({"count": 2.5}, {}),
        ({"provider": 3}, {}),
        ({"provider": "live"}, {"SKILLPATH_MAX_RETRIES": "x"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "soon"}),
        ({"provider": "live"}, {"SKILLPATH_MAX_RETRIES": "-1"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "-1"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "nan"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "inf"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "1e20", "SKILLPATH_MAX_RETRIES": "1"}),
        ({"provider": "live"}, {"SKILLPATH_RETRY_BACKOFF": "1", "SKILLPATH_MAX_RETRIES": str(10**18)}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "endpoint.invalid/v1"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "file:///etc/passwd"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "http://127.0.0.1:notaport/v1"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "http://127.0.0.1:99999/v1"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "http://user:pw@127.0.0.1:9/v1"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "http://127.0.0.1:9/v1?x=1"}),
        ({"provider": "live"}, {"SKILLPATH_API_BASE": "http://127.0.0.1:9/vé"}),
        ({"provider": "live"}, {"SKILLPATH_API_KEY": "clé€"}),
        ({"provider": "live"}, {"SKILLPATH_API_KEY": "abc\ndef"}),
        ({"provider": "live"}, {"SKILLPATH_MODEL": None}),
    ],
)
def test_bad_config_and_environment_values_exit_2(tmp_path, corpus_path, monkeypatch, capsys,
                                                    live_endpoint, config, env):
    for name, value in env.items():  # None unsets the variable
        if value is None:
            monkeypatch.delenv(name)
        else:
            monkeypatch.setenv(name, value)
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"provider": "mock", **config}), encoding="utf-8")
    code = main(["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json"),
                 "--config", str(config_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith("[generate] ")
    assert live_endpoint.received == []


@pytest.mark.parametrize("prompt_tokens", ["n/a", -1])
def test_live_bad_usage_counts_fail_the_question(tmp_path, capsys, live_endpoint, prompt_tokens):
    live_endpoint.script((200, {"choices": [{"message": {"content": "1. Paris"}}],
                                "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": 2}}))
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q1"), eiffel_row("q2")])
    code = main(["generate", "--provider", "live", "--corpus", corpus,
                 "--collection", str(tmp_path / "bundle.json"), "--count", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "[generate] question q1" in err
    assert "[generate] question q2" in err
    assert err.count("malformed endpoint response") == 2
    assert len(live_endpoint.received) == 2  # each question stopped at its first request


def test_a_live_reply_cut_off_at_the_token_limit_fails_its_question_unretried(tmp_path, corpus_path, capsys,
                                                                             live_endpoint, monkeypatch):
    monkeypatch.setenv("SKILLPATH_MAX_RETRIES", "2")
    live_endpoint.script((200, {"choices": [{"message": {"content": "1. adj=older; place 1=Big"},
                                             "finish_reason": "length"}]}))
    code = main(["generate", "--provider", "live", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "bundle.json"), "--count", "1"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"[generate] question q1: reply cut off at LIVE_MAX_TOKENS={providers.LIVE_MAX_TOKENS} tokens"
        " (tag 'substitution')"
    ]
    assert len(live_endpoint.received) == 1


@pytest.mark.parametrize("command, tag", [("generate", "substitution"), ("answer", "segment")])
def test_a_failed_live_call_names_its_stage(tmp_path, corpus_path, capsys, live_endpoint, command, tag):
    live_endpoint.script((400, "bad request"))
    bundle_path = str(tmp_path / "bundle.json")
    argv = {
        "generate": ["--collection", bundle_path, "--count", "1"],
        "answer": ["--collection", bundle_path, "--run-log", str(tmp_path / "run.jsonl")],
    }
    if command == "answer":
        assert main(["generate", "--provider", "mock", "--corpus", corpus_path, *argv["generate"]]) == 0
    capsys.readouterr()
    assert main([command, "--provider", "live", "--corpus", corpus_path, *argv[command]]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"[{command}] question q1: endpoint failed after 1 attempt(s) (tag {tag!r}): HTTP 400: bad request"
    ]


def test_a_live_error_body_of_several_lines_prints_one_line(tmp_path, corpus_path, capsys, live_endpoint):
    live_endpoint.script((400, "bad request\nsecond line of the body\n"))
    code = main(["generate", "--provider", "live", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "bundle.json"), "--count", "1"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "[generate] question q1: endpoint failed after 1 attempt(s) (tag 'substitution'):"
        " HTTP 400: bad request second line of the body"
    ]


@pytest.mark.parametrize("command", ["generate", "answer", "eval"])
def test_a_corpus_with_no_records_exits_2_naming_it(tmp_path, capsys, mock_calls, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n", encoding="utf-8")
    outputs = {"generate": ["--collection", str(tmp_path / "bundle.json")],
               "answer": ["--collection", str(tmp_path / "bundle.json"), "--run-log", str(tmp_path / "run.jsonl")],
               "eval": ["--run-log", str(tmp_path / "run.jsonl"), "--report", str(tmp_path / "report.json")]}
    provider = [] if command == "eval" else ["--provider", "mock"]
    assert main([command, *provider, "--corpus", str(corpus), *outputs[command]]) == 2
    assert capsys.readouterr().err.splitlines() == [f"[{command}] corpus {corpus} has no records"]
    assert mock_calls == []
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl"]


@pytest.mark.parametrize("bad_input", ["bundle", "config"])
def test_input_file_with_invalid_utf8_exits_2(tmp_path, corpus_path, capsys, bad_input):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"version": 1, "note": "caf\xe9"}\n')
    if bad_input == "bundle":
        argv = ["answer", "--provider", "mock", "--corpus", corpus_path,
                "--collection", str(bad), "--run-log", str(tmp_path / "run.jsonl")]
    else:
        argv = ["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json"),
                "--config", str(bad)]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


def _half_a_token_more(usage):
    """Counts that still add up, but are not integers."""
    return {**usage, "prompt_tokens": usage["prompt_tokens"] + 0.5,
            "total_tokens": usage["total_tokens"] + 0.5}


@pytest.mark.parametrize(
    "tamper",
    [
        lambda result: result.update(usage=_half_a_token_more(result["usage"])),
        lambda result: result.update(
            usage={"prompt_tokens": True, "completion_tokens": False, "total_tokens": True}),
        lambda result: result.update(text=5),
        lambda result: result.update(latency_ms=float("inf")),
    ],
    ids=["float-counts", "bool-counts", "text-number", "infinite-latency"],
)
def test_replay_of_a_bad_transcript_entry_exits_2_before_any_call(
    tmp_path, corpus_path, monkeypatch, capsys, tamper
):
    bundle = str(tmp_path / "bundle.json")
    assert main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle, "--count", "1"]) == 0
    recorder = RecordingProvider(CannedProvider())
    monkeypatch.setattr(cli, "CannedProvider", lambda: recorder)
    recorded_log = str(tmp_path / "recorded.jsonl")
    assert main(["answer", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle, "--run-log", recorded_log]) == 0
    transcript = tmp_path / "transcript.jsonl"
    recorder.transcript.save(str(transcript))
    lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
    tamper(lines[1]["result"])
    transcript.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    capsys.readouterr()

    run_log = tmp_path / "replayed.jsonl"
    code = main(["answer", "--provider", "replay", "--transcript", str(transcript),
                 "--corpus", corpus_path, "--collection", bundle, "--run-log", str(run_log)])
    assert code == 2
    assert f"{transcript}:2:" in capsys.readouterr().err
    assert not run_log.exists()


def test_replay_of_a_transcript_missing_entries_exits_2_before_any_call(tmp_path, fixtures_dir, capsys):
    lines = Path(fixtures_dir, "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text("".join(lines[:-1]), encoding="utf-8")  # header says 6, 5 follow
    run_log = tmp_path / "run.jsonl"
    code = main(["answer", "--provider", "replay", "--transcript", str(transcript),
                 "--corpus", f"{fixtures_dir}/corpus.jsonl",
                 "--collection", f"{fixtures_dir}/collection.json", "--run-log", str(run_log)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(transcript) in err and "counts 6 entries, but 5 follow" in err
    assert "[answer] question" not in err
    assert not run_log.exists()


@pytest.mark.parametrize("log", ["run", "baseline"])
def test_eval_rejects_a_repeated_run_log_line(tmp_path, corpus_path, capsys, log):
    logs = {name: tmp_path / f"{name}.jsonl" for name in ("run", "baseline")}
    for name, path in logs.items():
        copies = 3 if name == log else 1
        path.write_text((json.dumps(log_line()) + "\n") * copies, encoding="utf-8")
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(logs["run"]),
                 "--report", str(tmp_path / "report.json"),
                 "--baseline-log", str(logs["baseline"])])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{logs[log]}:2:" in err and "'q1'" in err


# eval makes no provider call, so a shared config's provider settings pass it unread
@pytest.mark.parametrize("config", [{"provider": "replay"}, {"parallelism": 0}],
                         ids=["replay-without-transcript", "parallelism-zero"])
def test_eval_ignores_the_settings_of_provider_calls(tmp_path, corpus_path, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_log = write_corpus(tmp_path / "run.jsonl", [log_line()])
    assert main(["eval", "--config", str(config_path), "--corpus", corpus_path, "--run-log", run_log,
                 "--report", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("flag", ["--provider=mock", "--transcript=t.jsonl", "--parallelism=2", "--seed=1"])
def test_eval_takes_no_flag_of_provider_calls(flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["eval", flag])


def test_random_selection_is_seeded_per_question(tmp_path):
    qids = [f"q{i}" for i in range(20)]
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row(qid) for qid in qids])
    skills = list(ReasoningSkill)
    examples = [make_example([skills[i]], question=f"example {i}") for i in range(5)]
    bundle = str(tmp_path / "bundle.json")
    persist_bundle({qid: build_collection(examples) for qid in qids}, bundle)

    def selected(run_log):
        assert main(["answer", "--provider", "mock", "--corpus", corpus, "--collection", bundle,
                     "--run-log", run_log, "--select-mode", "random", "--seed", "3"]) == 0
        lines = Path(run_log).read_text(encoding="utf-8").splitlines()
        return [json.loads(line)["selected_example_id"] for line in lines]

    first = selected(str(tmp_path / "run1.jsonl"))
    assert len(first) == 20 and len(set(first)) > 1
    assert selected(str(tmp_path / "run2.jsonl")) == first


def test_a_run_log_whose_lines_fail_part_way_leaves_the_previous_log(tmp_path, fixtures_dir, monkeypatch):
    run_log = tmp_path / "run.jsonl"
    run_log.write_bytes(b"the previous run log\n")
    written = []

    def second_line_fails(doc):
        if written:
            raise RuntimeError("the second line cannot be made")
        written.append(doc)
        return resources.json_line(doc)

    monkeypatch.setattr(cli, "json_line", second_line_fails)
    with pytest.raises(RuntimeError):
        main(["answer", "--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl",
              "--collection", f"{fixtures_dir}/collection.json", "--run-log", str(run_log)])
    assert len(written) == 1
    assert run_log.read_bytes() == b"the previous run log\n"
    assert os.listdir(tmp_path) == ["run.jsonl"]


# answer on the fixtures, in a child that exits inside os.replace of the run-log write
KILLED_AT_THE_RUN_LOG_REPLACE = """
import os, sys
from skillpath import cli

fixtures, run_log = sys.argv[1:]
replace = os.replace
os.replace = lambda source, target: os._exit(9) if target == run_log else replace(source, target)
cli.main(["answer", "--provider", "mock", "--corpus", os.path.join(fixtures, "corpus.jsonl"),
          "--collection", os.path.join(fixtures, "collection.json"), "--run-log", run_log])
"""


def test_a_write_killed_before_its_replace_leaves_no_temporary_file_after_the_next_write(tmp_path, fixtures_dir):
    run_log = tmp_path / "run.jsonl"
    run_log.write_bytes(b"the previous run log\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    killed = subprocess.run([sys.executable, "-c", KILLED_AT_THE_RUN_LOG_REPLACE, fixtures_dir, str(run_log)],
                            env=env, capture_output=True, timeout=60)
    assert killed.returncode == 9
    assert run_log.read_bytes() == b"the previous run log\n"
    assert main(["answer", "--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl",
                 "--collection", f"{fixtures_dir}/collection.json", "--run-log", str(run_log)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["run.jsonl", "run.jsonl.config.json"]


@pytest.mark.parametrize("command", ["generate", "answer", "eval"])
def test_a_gold_answer_without_word_tokens_exits_2_before_any_call(tmp_path, mock_calls, capsys, command):
    # the other inputs are valid, so only the corpus check stops each command
    row = dict(eiffel_row(), gold_answers=["\u2014"])
    corpus = write_corpus(tmp_path / "corpus.jsonl", [row])
    bundle, run_log = str(tmp_path / "bundle.json"), str(tmp_path / "run.jsonl")
    persist_bundle({"q1": build_collection([make_example([ReasoningSkill.DEDUCTIVE])])}, bundle)
    write_corpus(run_log, [log_line()])
    argv = {
        "generate": ["--provider", "mock", "--collection", str(tmp_path / "new.json")],
        "answer": ["--provider", "mock", "--collection", bundle, "--run-log", str(tmp_path / "out.jsonl")],
        "eval": ["--run-log", run_log, "--report", str(tmp_path / "report.json")],
    }[command]
    assert main([command, "--corpus", corpus, *argv]) == 2
    assert f"{corpus}:1:" in capsys.readouterr().err
    assert mock_calls == []


def test_a_corpus_undecodable_past_the_first_chunk_exits_2_before_any_call(tmp_path, mock_calls, capsys):
    # the valid lines fill several of the reader's chunks, and parse, before the bad byte is read
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row(f"q{i}") for i in range(300)])
    with open(corpus, "ab") as fh:
        fh.write(b'{"question_id": "\xff"}\n')
    assert os.path.getsize(corpus) > 8 * io.DEFAULT_BUFFER_SIZE
    code = main(["generate", "--provider", "mock", "--corpus", corpus, "--collection", str(tmp_path / "b.json")])
    assert code == 2
    assert f"cannot read corpus {corpus}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert mock_calls == []


def test_generate_into_a_missing_directory_exits_2_before_any_call(tmp_path, corpus_path, mock_calls, capsys):
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", str(tmp_path / "missing" / "bundle.json"), "--count", "1"])
    assert code == 2
    assert "cannot write collection bundle" in capsys.readouterr().err
    assert mock_calls == []


def test_answer_into_a_missing_directory_exits_2_before_any_call(tmp_path, fixtures_dir, mock_calls, capsys):
    code = main(["answer", "--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl",
                 "--collection", f"{fixtures_dir}/collection.json",
                 "--run-log", str(tmp_path / "missing" / "run.jsonl")])
    assert code == 2
    assert "cannot write run log" in capsys.readouterr().err
    assert mock_calls == []


@pytest.mark.parametrize("command", ["generate", "answer"])
def test_an_output_path_that_is_a_directory_exits_2_before_any_call(tmp_path, fixtures_dir, mock_calls, capsys,
                                                                     command):
    # a file cannot replace a directory, so the write at the end of the run would fail
    output = tmp_path / "out"
    output.mkdir()
    inputs = ["--provider", "mock", "--corpus", f"{fixtures_dir}/corpus.jsonl"]
    code = main({"generate": ["generate", *inputs, "--collection", str(output), "--count", "1"],
                 "answer": ["answer", *inputs, "--collection", f"{fixtures_dir}/collection.json",
                            "--run-log", str(output)]}[command])
    assert code == 2
    what = {"generate": "collection bundle", "answer": "run log"}[command]
    assert f"[{command}] cannot write {what} {output}: " in capsys.readouterr().err
    assert mock_calls == []
    assert output.is_dir() and list(output.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "answer", "eval"])
def test_a_lone_surrogate_in_the_corpus_exits_2_before_any_call(tmp_path, mock_calls, capsys, command):
    # json.dumps writes the surrogate as the escape "\ud800", which json.loads reads back
    doc = "The Eiffel Tower stands 330 metres tall \ud800. " + EIFFEL_DOC
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q1"), dict(eiffel_row("q2"), documents=[doc])])
    bundle, run_log = str(tmp_path / "bundle.json"), str(tmp_path / "run.jsonl")
    persist_bundle({qid: build_collection([make_example([ReasoningSkill.DEDUCTIVE])]) for qid in ("q1", "q2")},
                   bundle)
    write_corpus(run_log, [log_line(), log_line(question_id="q2")])
    argv = {
        "generate": ["--provider", "mock", "--collection", str(tmp_path / "new.json")],
        "answer": ["--provider", "mock", "--collection", bundle, "--run-log", str(tmp_path / "out.jsonl")],
        "eval": ["--run-log", run_log, "--report", str(tmp_path / "report.json")],
    }[command]
    assert main([command, "--corpus", corpus, *argv]) == 2
    assert f"{corpus}:2:" in capsys.readouterr().err
    assert mock_calls == []


# the flags each command takes besides --config and --help
COMMAND_FLAGS = {
    "generate": {"--corpus", "--collection", "--delta", "--count", "--gen-mode",
                 "--provider", "--transcript", "--parallelism", "--seed"},
    "answer": {"--corpus", "--collection", "--run-log", "--select-mode",
               "--provider", "--transcript", "--parallelism", "--seed"},
    "eval": {"--corpus", "--run-log", "--report", "--baseline-log"},
}


def runnable_argv(tmp_path, command):
    """Flags that run `command` to exit 0 on a one-question corpus, and the paths of its outputs."""
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row()])
    bundle, run_log = str(tmp_path / "bundle.json"), str(tmp_path / "run.jsonl")
    persist_bundle({"q1": build_collection([make_example([ReasoningSkill.DEDUCTIVE])])}, bundle)
    write_corpus(run_log, [log_line()])
    out = str(tmp_path / "out")
    argv, outputs = {
        "generate": (["--provider", "mock", "--collection", out, "--count", "1"], [out]),
        "answer": (["--provider", "mock", "--collection", bundle, "--run-log", out], [out]),
        "eval": (["--run-log", run_log, "--report", out], [out, out + ".records.tsv"]),
    }[command]
    return [command, "--corpus", corpus, *argv], outputs


def subparser(command):
    [commands] = [action for action in build_parser()._actions if action.dest == "command"]
    return commands.choices[command]


@pytest.mark.parametrize(
    "command, config, code",
    [("eval", {"count": 0}, 0), ("answer", {"gen_mode": "bogus"}, 0), ("generate", {"select_mode": "random"}, 0)]
    + [(command, config, 2) for command in COMMAND_FLAGS for config in ({"countt": 1}, {"count": "x"})],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else str(value),
)
def test_a_config_key_is_type_checked_for_every_command_and_applied_only_where_read(tmp_path, capsys, command,
                                                                                    config, code):
    argv, _ = runnable_argv(tmp_path, command)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([*argv, "--config", str(config_path)]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith(f"[{command}] config file {config_path}: ")


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_a_snapshot_lists_the_settings_read_and_reruns_as_a_config_file(tmp_path, command):
    argv, outputs = runnable_argv(tmp_path, command)
    assert main(argv) == 0
    snapshot = json.loads(Path(outputs[0] + ".config.json").read_text(encoding="utf-8"))
    dests = {action.dest for action in subparser(command)._actions if action.option_strings} - {"help"}
    assert snapshot["command"] == command
    assert set(snapshot["config"]) == dests - {"config"}

    def produced():
        if command == "generate":
            return json.loads(Path(outputs[0]).read_text(encoding="utf-8"))["collections"]
        return [Path(path).read_bytes() for path in outputs]

    first = produced()
    for path in outputs:
        os.remove(path)
    config_path = tmp_path / "snapshot.json"
    config_path.write_text(json.dumps(snapshot["config"]), encoding="utf-8")
    assert main([command, "--config", str(config_path)]) == 0
    assert produced() == first


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_of_its_command(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"--config", "--help"}


# ------------------------------------------------------------------ the live journal

# q2 decomposes into no template, so it fails before any call and a live run keeps its journal
JOURNAL_ROWS = [eiffel_row("q1"), eiffel_row("q2", question="?!?")]
JOURNAL_HEADER = {"identity": {"model": "m"}, "version": providers.TRANSCRIPT_VERSION}


@pytest.fixture
def canned_endpoint(live_endpoint):
    """The live endpoint, answering each prompt as the mock does."""
    live_endpoint.reply = canned_completion
    return live_endpoint


def sent_prompts(endpoint, since=0):
    """The prompts of the requests the endpoint received, from its request `since` on, with their counts."""
    return Counter(json.loads(body)["messages"][0]["content"] for _, _, body in endpoint.received[since:])


def generate_live(tmp_path, endpoint, *flags, folder="out", code=1):
    """The prompts a live generate on the corpus in tmp_path sent, writing into tmp_path/folder, and its journal."""
    (tmp_path / folder).mkdir(exist_ok=True)
    bundle = tmp_path / folder / "bundle.json"
    since = len(endpoint.received)
    assert main(["generate", "--provider", "live", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--collection", str(bundle), "--count", "1", *flags]) == code
    return sent_prompts(endpoint, since), Path(f"{bundle}.journal.jsonl")


def stored_collections(folder):
    return json.loads((folder / "bundle.json").read_text(encoding="utf-8"))["collections"]


def test_a_live_rerun_sends_no_request_its_journal_holds(tmp_path, canned_endpoint):
    write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    sent, journal = generate_live(tmp_path, canned_endpoint)
    lines = journal.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == JOURNAL_HEADER
    entries = [json.loads(line) for line in lines[1:]]
    assert [sorted(entry) for entry in entries] == [["fingerprint", "question", "result", "tag"]] * sent.total()
    # each line names the question and stage of a request the endpoint saw; q2 fails before any call
    seen, occurrences = {}, Counter()
    for _, _, body in canned_endpoint.received:
        prompt = json.loads(body)["messages"][0]["content"]
        seen[providers.fingerprint(prompt, occurrences[prompt], ("q1",))] = ("q1", stage_of(prompt))
        occurrences[prompt] += 1
    assert {entry["fingerprint"]: (entry["question"], entry["tag"]) for entry in entries} == seen
    assert {tag for _, tag in seen.values()} <= set(_HANDLERS)
    collections = stored_collections(tmp_path / "out")
    assert generate_live(tmp_path, canned_endpoint)[0] == Counter()
    assert stored_collections(tmp_path / "out") == collections


def test_a_reply_that_failed_to_parse_is_replayed_not_asked_again(tmp_path, canned_endpoint, capsys):
    write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)

    def reply(body):
        if stage_of(json.loads(body)["messages"][0]["content"]) == "similarity":
            return 200, {"choices": [{"message": {"content": "They are alike."}}]}
        return canned_completion(body)

    canned_endpoint.reply = reply
    generate_live(tmp_path, canned_endpoint)
    err = capsys.readouterr().err
    assert "[generate] question q1: similarity reply does not number one item per candidate: 'They are alike.'" in err
    assert generate_live(tmp_path, canned_endpoint)[0] == Counter()
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "change",
    [["--delta", "8"], ["--count", "2"], ["--gen-mode", "template-variation"], ["--seed", "5"], "edited question"],
    ids=["delta", "count", "gen-mode", "seed", "edited-question"],
)
def test_a_live_rerun_with_other_settings_sends_only_the_requests_its_journal_lacks(tmp_path, canned_endpoint,
                                                                                     change):
    rows = list(JOURNAL_ROWS)
    write_corpus(tmp_path / "corpus.jsonl", rows)
    first, _ = generate_live(tmp_path, canned_endpoint)
    if change == "edited question":
        rows[0] = eiffel_row("q1", question=EIFFEL.replace("taller", "older"))
        write_corpus(tmp_path / "corpus.jsonl", rows)
        change = []
    rerun, _ = generate_live(tmp_path, canned_endpoint, *change)
    fresh, _ = generate_live(tmp_path, canned_endpoint, *change, folder="fresh")
    assert rerun == fresh - first
    assert stored_collections(tmp_path / "out") == stored_collections(tmp_path / "fresh")
    if change == ["--delta", "8"]:
        assert rerun == Counter()  # the same replies, filtered at another threshold


def test_a_mock_rerun_makes_its_calls_again(tmp_path, mock_calls):
    corpus = write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    argv = ["generate", "--provider", "mock", "--corpus", corpus, "--collection", str(tmp_path / "bundle.json"),
            "--count", "1", "--seed", "4"]
    assert main(argv) == 1
    first = list(mock_calls)
    mock_calls.clear()
    assert main(argv) == 1
    assert mock_calls == first != []


@pytest.mark.parametrize("backend", ["mock", "replay", "live"])
def test_only_a_live_run_keeps_a_journal(tmp_path, canned_endpoint, monkeypatch, backend):
    corpus = write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    transcript = tmp_path / "empty.jsonl"
    Transcript().save(str(transcript))
    fingerprints = []
    fingerprint = providers.fingerprint
    monkeypatch.setattr(providers, "fingerprint", lambda *args: fingerprints.append(args) or fingerprint(*args))
    bundle = tmp_path / "bundle.json"
    flags = ["--transcript", str(transcript)] if backend == "replay" else []
    # q1 fails under replay too, as the empty transcript holds none of its requests
    assert main(["generate", "--provider", backend, "--corpus", corpus, "--collection", str(bundle),
                 "--count", "1", *flags]) == 1
    assert os.path.exists(f"{bundle}.journal.jsonl") == (backend == "live")
    assert bool(fingerprints) == (backend != "mock")


@pytest.mark.parametrize("command", ["generate", "answer"])
def test_a_live_run_removes_its_journal_once_every_question_succeeds(tmp_path, corpus_path, canned_endpoint,
                                                                      command):
    bundle, run_log = tmp_path / "bundle.json", tmp_path / "run.jsonl"
    generate = ["generate", "--corpus", corpus_path, "--collection", str(bundle), "--count", "1"]
    assert main(generate + ["--provider", "live" if command == "generate" else "mock"]) == 0
    if command == "answer":
        assert main(["answer", "--provider", "live", "--corpus", corpus_path, "--collection", str(bundle),
                     "--run-log", str(run_log)]) == 0
    assert canned_endpoint.received
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".journal.jsonl")]


@pytest.mark.parametrize("command", ["generate", "answer"])
def test_a_journal_that_cannot_be_written_exits_2_before_any_call(tmp_path, corpus_path, canned_endpoint, capsys,
                                                                  command):
    bundle, run_log = tmp_path / "bundle.json", tmp_path / "run.jsonl"
    flags = {"generate": ["--collection", str(bundle), "--count", "1"],
             "answer": ["--collection", str(bundle), "--run-log", str(run_log)]}
    if command == "answer":
        assert main(["generate", "--provider", "mock", "--corpus", corpus_path, *flags["generate"]]) == 0
    output = {"generate": bundle, "answer": run_log}[command]
    os.mkdir(f"{output}.journal.jsonl")  # unreadable as a file, and not replaceable by one
    capsys.readouterr()
    assert main([command, "--provider", "live", "--corpus", corpus_path, *flags[command]]) == 2
    assert f"[{command}] cannot write journal {output}.journal.jsonl: " in capsys.readouterr().err
    assert canned_endpoint.received == []
    assert not output.exists()


def test_a_failed_journal_append_fails_its_question_only(tmp_path, canned_endpoint, monkeypatch, capsys):
    write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q1"), eiffel_row("q2")])
    journal = tmp_path / "out" / "bundle.json.journal.jsonl"
    append = providers.append_line

    def q2_finds_a_directory(path, line, what):
        if providers._scope.get() == ("q2",) and journal.is_file():
            journal.unlink()
            journal.mkdir()
        append(path, line, what)

    monkeypatch.setattr(providers, "append_line", q2_finds_a_directory)
    generate_live(tmp_path, canned_endpoint)
    err = capsys.readouterr().err
    assert f"[generate] question q2: cannot append to journal {journal}: " in err
    assert "question q1" not in err
    assert set(stored_collections(tmp_path / "out")) == {"q1"}


def test_a_torn_last_journal_line_is_dropped_and_asked_again(tmp_path, canned_endpoint, caplog):
    write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    _, journal = generate_live(tmp_path, canned_endpoint)
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], encoding="utf-8")
    sent, _ = generate_live(tmp_path, canned_endpoint)
    assert f"dropping a torn last line from journal {journal}" in caplog.text
    # only the reply the torn line held was asked for again, and its line is whole again
    assert sent.total() == 1
    rewritten = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    assert rewritten[:-1] == lines[:-1]
    assert json.loads(rewritten[-1])["fingerprint"] == json.loads(lines[-1])["fingerprint"]


@pytest.mark.parametrize("model, resumed", [("m", True), ("another", False)])
def test_a_journal_made_with_another_live_model_is_ignored_with_a_warning(tmp_path, canned_endpoint, monkeypatch,
                                                                          caplog, model, resumed):
    write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    first, journal = generate_live(tmp_path, canned_endpoint)
    monkeypatch.setenv("SKILLPATH_MODEL", model)
    rerun, _ = generate_live(tmp_path, canned_endpoint)
    assert rerun == (Counter() if resumed else first)
    assert (f"ignoring unreadable journal {journal}: made with " in caplog.text) != resumed
    assert json.loads(journal.read_text(encoding="utf-8").split("\n")[0])["identity"] == {"model": model}


JOURNAL_REQUEST = {"question": "q1", "tag": "answer"}
HEADER_LINE = json.dumps(JOURNAL_HEADER) + "\n"


def journal_line(fingerprint="f", **result):
    """A journal line whose result is a one-word reply of 2 tokens, with the changes in `result`."""
    doc = {"text": "x", "usage": {"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2}, **result}
    return json.dumps({"fingerprint": fingerprint, **JOURNAL_REQUEST, "result": doc})


# what a journal holds -> what the warning that ignores it names
UNREADABLE_JOURNALS = {
    "not-json": (HEADER_LINE + "not json", ".journal.jsonl:2: invalid JSON"),
    "not-an-object": (HEADER_LINE + "[1]", ".journal.jsonl:2: line is not a JSON object"),
    "repeated-key": (HEADER_LINE + journal_line()[:-1] + ', "fingerprint": "g"}',
                     "an object repeats the key 'fingerprint'"),
    "repeated-fingerprint": (HEADER_LINE + journal_line() + "\n" + journal_line(),
                             ".journal.jsonl:3: repeats fingerprint 'f'"),
    "fingerprint-number": (HEADER_LINE + journal_line(7), "fingerprint must be a string, got 7"),
    "unknown-result-field": (HEADER_LINE + journal_line(model="m"), "unknown field 'model'"),
    "missing-usage": (HEADER_LINE + json.dumps({"fingerprint": "f", **JOURNAL_REQUEST, "result": {"text": "x"}}),
                      "missing field 'usage'"),
    # a line as version 6 wrote it, with the request's prompt and tag in place of question and tag
    "request-line": (HEADER_LINE + json.dumps({"fingerprint": "f", "request": {"prompt": "p", "tag": "answer"},
                                               "result": json.loads(journal_line())["result"]}),
                     "missing field 'question'"),
    "counts-that-do-not-add-up": (HEADER_LINE + journal_line(usage={"prompt_tokens": 1, "completion_tokens": 1,
                                                                    "total_tokens": 5}), "total_tokens must equal"),
    "negative-latency": (HEADER_LINE + journal_line(latency_ms=-1.0),
                         "latency_ms must be a finite non-negative number"),
    "version-6": (json.dumps({**JOURNAL_HEADER, "version": 6}) + "\n" + journal_line(), "has version 6, not 7"),
    # 7.0 equals 7 in Python, but it is not the JSON integer a version is
    "version-float": (json.dumps({**JOURNAL_HEADER, "version": float(providers.TRANSCRIPT_VERSION)}),
                      f"has version {float(providers.TRANSCRIPT_VERSION)!r}, not {providers.TRANSCRIPT_VERSION}"),
}


@pytest.mark.parametrize("body, complaint", UNREADABLE_JOURNALS.values(), ids=UNREADABLE_JOURNALS)
def test_an_unreadable_journal_is_ignored_and_started_anew_so_the_next_run_resumes(tmp_path, canned_endpoint, caplog,
                                                                                   body, complaint):
    write_corpus(tmp_path / "corpus.jsonl", JOURNAL_ROWS)
    journal = tmp_path / "out" / "bundle.json.journal.jsonl"
    journal.parent.mkdir()
    journal.write_text(body + "\n", encoding="utf-8")
    sent, _ = generate_live(tmp_path, canned_endpoint)
    assert f"ignoring unreadable journal {journal}: " in caplog.text
    assert complaint in caplog.text
    # the journal holds the header and this run's replies only, so the next run asks for none of them
    lines = journal.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == JOURNAL_HEADER and len(lines) == 1 + sent.total()
    assert generate_live(tmp_path, canned_endpoint)[0] == Counter()
