from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from skillpath.cli import ConfigError, _resolve_config, build_parser, main
from skillpath.collection import example_to_record, restore_bundle
from skillpath.errors import StorageError
from skillpath.skills import ReasoningSkill

from conftest import make_example

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


def resolve(argv):
    return _resolve_config(build_parser().parse_args(argv))


@pytest.fixture
def corpus_path(tmp_path):
    return write_corpus(tmp_path / "corpus.jsonl", [eiffel_row()])


def test_flag_beats_config_file_beats_env(tmp_path, corpus_path, monkeypatch):
    monkeypatch.setenv("SKILLPATH_PARALLELISM", "3")
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
    monkeypatch.setenv("SKILLPATH_PARALLELISM", "5")
    no_file = ["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json"),
               "--provider", "mock"]
    assert resolve(no_file).provider == "mock"
    assert resolve(no_file).parallelism == 5


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
    assert not os.path.exists(bundle_path + ".checkpoint.jsonl")
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
    # the good question still ships, and the checkpoint stays for a retry
    assert set(restore_bundle(bundle_path)) == {"q1"}
    assert os.path.exists(bundle_path + ".checkpoint.jsonl")


def test_generate_resumes_from_checkpoint(tmp_path, corpus_path):
    bundle_path = str(tmp_path / "bundle.json")
    marker = make_example([ReasoningSkill.ABDUCTIVE], question="carried over from the checkpoint")
    with open(bundle_path + ".checkpoint.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"question_id": "q1", "examples": [example_to_record(marker)]}) + "\n")
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "2"])
    assert code == 0
    bundle = restore_bundle(bundle_path)
    # the checkpointed result was reused, not regenerated
    assert bundle["q1"].examples[0].question == "carried over from the checkpoint"
    assert not os.path.exists(bundle_path + ".checkpoint.jsonl")


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
    assert "q9" in capsys.readouterr().err
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
    a = json.loads(Path(serial).read_text(encoding="utf-8"))
    b = json.loads(Path(parallel).read_text(encoding="utf-8"))
    a.pop("created_at"), b.pop("created_at")
    assert a == b


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


def test_torn_checkpoint_tail_keeps_completed_questions(tmp_path):
    corpus = write_corpus(
        tmp_path / "corpus.jsonl",
        [eiffel_row("q1"), eiffel_row("q2"), eiffel_row("q3"), eiffel_row("q4", question="?!?")],
    )
    bundle_path = str(tmp_path / "bundle.json")
    checkpoint = bundle_path + ".checkpoint.jsonl"
    lines = []
    for qid in ("q1", "q2"):
        marker = make_example([ReasoningSkill.ABDUCTIVE], question=f"checkpointed {qid}")
        lines.append(json.dumps({"question_id": qid, "examples": [example_to_record(marker)]}))
    torn = json.dumps({"question_id": "q3", "examples": []})[:20]
    with open(checkpoint, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" + torn)
    # q4 fails, so the checkpoint outlives the run and can be inspected
    assert main(["generate", "--provider", "mock", "--corpus", corpus,
                 "--collection", bundle_path, "--count", "1"]) == 1
    bundle = restore_bundle(bundle_path)
    assert bundle["q1"].examples[0].question == "checkpointed q1"
    assert bundle["q2"].examples[0].question == "checkpointed q2"
    # the fragment is gone and q3's fresh line did not glue onto it
    with open(checkpoint, encoding="utf-8") as fh:
        kept = [json.loads(line) for line in fh]
    assert [doc["question_id"] for doc in kept] == ["q1", "q2", "q3"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("construction_mode", "bogus"),
        ("question", ""),
    ],
)
def test_invalid_checkpoint_example_starts_fresh(tmp_path, corpus_path, caplog, field, value):
    bundle_path = str(tmp_path / "bundle.json")
    marker = example_to_record(
        make_example([ReasoningSkill.ABDUCTIVE], question="carried over from the checkpoint")
    )
    marker[field] = value
    with open(bundle_path + ".checkpoint.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"question_id": "q1", "examples": [marker]}) + "\n")
    code = main(["generate", "--provider", "mock", "--corpus", corpus_path,
                 "--collection", bundle_path, "--count", "1"])
    assert code == 0
    assert "ignoring unreadable checkpoint" in caplog.text
    # regenerated from scratch, not taken from the checkpoint
    assert restore_bundle(bundle_path)["q1"].examples[0].question != (
        "carried over from the checkpoint"
    )


@pytest.mark.parametrize(
    "log, bad",
    [
        ("run", log_line(usage={"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 5})),
        ("run", [1, 2]),
        ("run", log_line(latency_ms="fast")),
        ("run", log_line(answer=7)),
        ("run", log_line(completion=["x"])),
        ("run", log_line(usage=None)),
        ("run", log_line(usage={"prompt_tokens": "9", "completion_tokens": 1,
                                 "total_tokens": 10})),
        ("baseline", log_line(usage=None)),
        ("baseline", "just a string"),
    ],
    ids=["total-mismatch", "array", "latency-text", "answer-number", "completion-list",
         "no-usage", "token-text", "baseline-no-usage", "baseline-string"],
)
def test_malformed_run_log_line_exits_2(tmp_path, corpus_path, capsys, log, bad):
    logs = {name: tmp_path / f"{name}.jsonl" for name in ("run", "baseline")}
    for name, path in logs.items():
        lines = [log_line(), bad if name == log else log_line()]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    code = main(["eval", "--corpus", corpus_path, "--run-log", str(logs["run"]),
                 "--report", str(tmp_path / "report.json"),
                 "--baseline-log", str(logs["baseline"])])
    assert code == 2
    assert f"{logs[log]}:2:" in capsys.readouterr().err


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
    ],
)
def test_bad_config_and_environment_values_exit_2(tmp_path, corpus_path, monkeypatch, capsys,
                                                    config, env):
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({"provider": "mock", **config}), encoding="utf-8")
    code = main(["generate", "--corpus", corpus_path, "--collection", str(tmp_path / "o.json"),
                 "--config", str(config_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith("[generate] ")


@pytest.mark.parametrize("prompt_tokens", ["n/a", -1])
def test_live_bad_usage_counts_fail_the_question(tmp_path, monkeypatch, capsys, prompt_tokens):
    class Reply:
        status_code = 200
        text = ""

        def json(self):
            return {
                "choices": [{"message": {"content": "1. Paris"}}],
                "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": 2},
            }

    monkeypatch.setattr("requests.post", lambda *args, **kwargs: Reply())
    monkeypatch.setenv("SKILLPATH_API_BASE", "http://endpoint.invalid")
    monkeypatch.setenv("SKILLPATH_MODEL", "m")
    corpus = write_corpus(tmp_path / "corpus.jsonl", [eiffel_row("q1"), eiffel_row("q2")])
    code = main(["generate", "--provider", "live", "--corpus", corpus,
                 "--collection", str(tmp_path / "bundle.json"), "--count", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "[generate] question q1" in err
    assert "[generate] question q2" in err
