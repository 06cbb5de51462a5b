"""Batch front end: generate collections, answer corpora, evaluate runs.

Configuration resolves in three layers, flags over config file over
environment, and the resolved snapshot is written next to every output so
a run can be reproduced from its artifacts alone.

--parallelism N bounds the provider calls in flight. Questions, and the
independent calls within each (the similarity scores of distinct
candidates, the reference documents of distinct subquestions, the
extractions of distinct skills), overlap through the same
providers.fan_out: up to N questions at once and up to N calls each, so
at most N * N requests are in flight, --parallelism 1 sends one at a
time, and no thread outlives a command. A question's SkillPathError is
printed and fails that question only; any other error is raised once
every question has run, the first in input order, at any N.
Within a question identical requests keep program order, and recorded
transcripts are sorted by fingerprint, so a run whose questions send each
other no identical request replays byte for byte at any parallelism.
Across questions running in parallel the order of identical requests is
not fixed, so recording or replaying such a run with parallelism above 1
is not guaranteed to reproduce it. Files are always written by one writer
in input order. A run log's latency_ms is the sum of a question's call
latencies, not its wall time.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
import threading
import typing
from dataclasses import asdict, dataclass, fields

from . import answerer, collection as collection_mod, corpus as corpus_mod, examplegen, metrics
from .canned import CannedProvider
from .decompose import decompose_question
from .errors import NoCandidates, SkillPathError, StorageError, UnmatchedQuestionId, ValidationError
from .matcher import SelectionMode
from .providers import (
    LiveProvider,
    PARALLELISM_ENV,
    Provider,
    ReplayProvider,
    TokenUsage,
    fan_out,
)
from .resources import read_jsonl, write_json, write_text

log = logging.getLogger(__name__)

_GEN_MODES = {
    "random-fill": examplegen.ConstructionMode.RANDOM_FILL,
    "guided-fill": examplegen.ConstructionMode.GUIDED_FILL,
    "template-variation": examplegen.ConstructionMode.TEMPLATE_VARIATION,
}
_SELECT_MODES = {
    "full": SelectionMode.FULL,
    "coverage": SelectionMode.COVERAGE_ONLY,
    "uniqueness": SelectionMode.UNIQUENESS_ONLY,
    "random": SelectionMode.RANDOM,
}
# candidates requested per question before filtering trims to --count
_OVERGENERATION = 2


@dataclass
class RunConfig:
    command: str = ""
    corpus: str | None = None
    collection: str | None = None
    run_log: str | None = None
    report: str | None = None
    baseline_log: str | None = None
    transcript: str | None = None
    provider: str = "live"
    gen_mode: str = "guided-fill"
    select_mode: str = "full"
    delta: int = 7
    count: int = 5
    seed: int | None = None
    parallelism: int = 1

    def snapshot(self) -> dict:
        return {"command": self.command, "config": asdict(self)}


# field name -> the value types a config file may give it
_FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(RunConfig).items()
}


class ConfigError(SkillPathError):
    pass


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    valid = {f.name for f in fields(RunConfig)} - {"command"}

    env_parallelism = os.environ.get(PARALLELISM_ENV)
    if env_parallelism:
        try:
            config.parallelism = int(env_parallelism)
        except ValueError as exc:
            raise ConfigError(f"{PARALLELISM_ENV} must be an integer") from exc

    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in doc.items():
            attr = key.replace("-", "_")
            if attr not in valid:
                raise ConfigError(f"config file {config_path}: unknown setting {key!r}")
            expected = _FIELD_TYPES[attr]
            if not isinstance(value, expected) or (isinstance(value, bool) and bool not in expected):
                raise ConfigError(f"config file {config_path}: {key} has the wrong type: {value!r}")
            setattr(config, attr, value)

    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(config, f.name, flag_value)

    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.provider not in ("live", "mock", "replay"):
        raise ConfigError(f"unknown provider {config.provider!r}")
    if config.gen_mode not in _GEN_MODES:
        raise ConfigError(f"unknown generation mode {config.gen_mode!r}")
    if config.select_mode not in _SELECT_MODES:
        raise ConfigError(f"unknown selection mode {config.select_mode!r}")
    if not 1 <= config.delta <= 10:
        raise ConfigError(f"delta must lie in [1, 10], got {config.delta}")
    if config.count < 1:
        raise ConfigError("count must be at least 1")
    if config.parallelism < 1:
        raise ConfigError("parallelism must be at least 1")
    if config.select_mode == "random" and config.seed is None:
        raise ConfigError("selection mode random requires --seed")
    if config.provider == "replay" and not config.transcript:
        raise ConfigError("provider replay requires --transcript")

    required = {
        "generate": ("corpus", "collection"),
        "answer": ("corpus", "collection", "run_log"),
        "eval": ("corpus", "run_log", "report"),
    }[config.command]
    for name in required:
        if not getattr(config, name):
            raise ConfigError(f"--{name.replace('_', '-')} is required for {config.command}")
    # inputs must be resolvable before any provider work starts
    input_paths = {
        "generate": [config.corpus],
        "answer": [config.corpus, config.collection],
        "eval": [config.corpus, config.run_log],
    }[config.command]
    if config.provider == "replay":
        input_paths.append(config.transcript)
    for path in input_paths:
        if not os.path.exists(path):
            raise StorageError(f"input path does not exist: {path}")


def _build_provider(config: RunConfig) -> Provider:
    if config.provider == "mock":
        return CannedProvider()
    if config.provider == "replay":
        return ReplayProvider.from_file(config.transcript)
    return LiveProvider()


def _write_snapshot(config: RunConfig, output_path: str) -> None:
    write_json(output_path + ".config.json", config.snapshot(), "config snapshot")


def _run_questions(config: RunConfig, records: list[corpus_mod.QARecord], attempt) -> tuple[dict, int]:
    """attempt(record) for every record, up to config.parallelism questions at once.

    Returns the values of the questions that succeeded, by question id in
    input order, and how many failed. A SkillPathError fails its question
    and is printed; any other error is raised once every question has run.
    """

    def outcome(record: corpus_mod.QARecord):
        try:
            return attempt(record), None
        except SkillPathError as exc:
            return None, str(exc)

    done = {}
    failures = 0
    results = fan_out(outcome, records, key=lambda r: r.question_id, parallelism=config.parallelism)
    for record, (value, error) in zip(records, results):
        if error is not None:
            failures += 1
            print(f"[{config.command}] question {record.question_id}: {error}", file=sys.stderr)
        else:
            done[record.question_id] = value
    return done, failures


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------- generate

def _load_checkpoint(path: str) -> dict[str, collection_mod.ExampleCollection]:
    """Completed questions from the checkpoint; a torn last line is cut off."""
    done: dict[str, collection_mod.ExampleCollection] = {}
    if not os.path.exists(path):
        return done
    try:
        _drop_torn_tail(path)
        for _, doc in read_jsonl(path, "checkpoint"):
            examples = [collection_mod.example_from_record(d) for d in doc["examples"]]
            done[doc["question_id"]] = collection_mod.build_collection(examples)
    except (OSError, KeyError, TypeError, ValueError, SkillPathError) as exc:
        log.warning("ignoring unreadable checkpoint %s: %s", path, exc)
        return {}
    return done


def _drop_torn_tail(path: str) -> None:
    """Truncate after the last newline: every whole line ends with one.

    An append cut short leaves a fragment without its newline; left in
    place it would swallow the next appended line as well.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            log.warning("dropping a torn last line from checkpoint %s", path)
            fh.truncate(data.rfind(b"\n") + 1)


def cmd_generate(config: RunConfig) -> int:
    records = corpus_mod.load_records(config.corpus)
    provider = _build_provider(config)
    mode = _GEN_MODES[config.gen_mode]

    checkpoint_path = config.collection + ".checkpoint.jsonl"
    done = _load_checkpoint(checkpoint_path)
    if done:
        log.info("resuming: %d question(s) already completed", len(done))
    checkpoint_lock = threading.Lock()

    def work(record: corpus_mod.QARecord) -> collection_mod.ExampleCollection:
        qid = record.question_id
        if qid in done:
            return done[qid]
        template = decompose_question(record.question)
        rng = random.Random(f"{config.seed if config.seed is not None else 0}:{qid}")
        candidates = examplegen.generate_candidates(
            template,
            mode,
            count=config.count * _OVERGENERATION,
            provider=provider,
            rng=rng,
        )
        scored = examplegen.score_candidates(record.question, candidates, provider, config.parallelism)
        kept = examplegen.filter_candidates(scored, config.delta)
        if not kept:
            raise NoCandidates(qid)
        examples = [
            examplegen.synthesize_example(c.text, provider, mode, config.parallelism)
            for c in kept[: config.count]
        ]
        built = collection_mod.build_collection(examples)
        stored = [collection_mod.example_to_record(e) for e in built.examples]
        line = {"question_id": qid, "examples": stored}
        with checkpoint_lock, open(checkpoint_path, "a", encoding="utf-8") as fh:
            fh.write(_json_line(line) + "\n")
        return built

    bundle, failures = _run_questions(config, records, work)

    created_at = None
    if isinstance(provider, ReplayProvider):
        created_at = provider.transcript.created_at or None
    if bundle:
        collection_mod.persist_bundle(
            bundle,
            config.collection,
            construction_mode=mode.value,
            delta=config.delta,
            created_at=created_at,
        )
        _write_snapshot(config, config.collection)
    if failures == 0 and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)

    print(f"generated collections for {len(bundle)} of {len(records)} question(s)")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ answer

def cmd_answer(config: RunConfig) -> int:
    records = corpus_mod.load_records(config.corpus)
    bundle = collection_mod.restore_bundle(config.collection)
    provider = _build_provider(config)
    mode = _SELECT_MODES[config.select_mode]

    def work(record: corpus_mod.QARecord) -> dict:
        qid = record.question_id
        if qid not in bundle:
            raise UnmatchedQuestionId(qid)
        gamma = bundle[qid]
        match = answerer.select_for(gamma, mode, config.seed)
        document = "\n\n".join(record.documents)
        example = gamma.examples[match.selected_index]
        trace = answerer.answer(record.question, document, example, provider, config.parallelism)
        return {
            "question_id": qid,
            "question": trace.question,
            "answer": trace.answer,
            "completion": trace.completion,
            "focused_segments": trace.focused_segments,
            "prompt": trace.prompt,
            "selected_example_id": match.selected_index,
            "match": match.to_record(),
            "usage": asdict(trace.usage),
            "latency_ms": trace.latency_ms,
        }

    answered, failures = _run_questions(config, records, work)
    lines = [_json_line(line) for line in answered.values()]
    total_tokens = sum(line["usage"]["total_tokens"] for line in answered.values())

    write_text(config.run_log, "".join(line + "\n" for line in lines), "run log")
    _write_snapshot(config, config.run_log)

    print(
        f"answered {len(lines)} of {len(records)} record(s), "
        f"{failures} failure(s), {total_tokens} total tokens"
    )
    return 0 if failures == 0 else 1


# -------------------------------------------------------------------- eval

class _LoggedAnswer(typing.NamedTuple):
    """The fields eval reads from one run-log line."""

    question_id: str
    answer: str
    completion: str
    usage: TokenUsage
    latency_ms: float


def _logged_answer(doc) -> _LoggedAnswer:
    if not isinstance(doc, dict):
        raise ValueError("line is not a JSON object")
    texts = [doc.get(key, "") for key in ("question_id", "answer", "completion")]
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("question_id, answer and completion must be strings")
    latency = doc.get("latency_ms", 0.0)
    if isinstance(latency, bool) or not isinstance(latency, (int, float)):
        raise ValueError(f"latency_ms must be a number, got {latency!r}")
    usage = doc.get("usage")
    if not isinstance(usage, dict):
        raise ValueError("usage must be an object of token counts")
    counts = [usage.get(key) for key in ("prompt_tokens", "completion_tokens", "total_tokens")]
    if not all(type(count) is int for count in counts):
        raise ValueError(f"usage token counts must be integers, got {usage!r}")
    return _LoggedAnswer(*texts, TokenUsage(*counts), float(latency))


def _load_run_log(path: str) -> list[_LoggedAnswer]:
    """Every line of a run log, checked; a bad line is an error naming path:line."""
    entries = []
    for line, doc in read_jsonl(path, "run log"):
        try:
            entries.append(_logged_answer(doc))
        except ValueError as exc:
            raise ValidationError(path, line, str(exc)) from exc
    return entries


def _baseline_token_mean(path: str) -> float:
    totals = [entry.usage.total_tokens for entry in _load_run_log(path)]
    if not totals:
        raise StorageError(f"baseline log {path} has no lines")
    return sum(totals) / len(totals)


def _fmt_rate(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def cmd_eval(config: RunConfig) -> int:
    records = {r.question_id: r for r in corpus_mod.load_records(config.corpus)}
    logged = _load_run_log(config.run_log)

    eval_records = []
    for entry in logged:
        if entry.question_id not in records:
            raise UnmatchedQuestionId(entry.question_id)
        gold = records[entry.question_id]
        gold_ids = set(gold.gold_sentence_ids) if gold.gold_sentence_ids is not None else None
        eval_records.append(
            metrics.EvalRecord(
                question_id=entry.question_id,
                prediction=entry.answer,
                gold_answers=list(gold.gold_answers),
                cited_sentences=metrics.attribute_citations(entry.completion, list(gold.documents)),
                gold_sentences=gold_ids,
                chain_text=entry.completion,
                usage=entry.usage,
                latency_ms=entry.latency_ms,
            )
        )

    report, rows = metrics.evaluate_records(eval_records)
    report_doc = report.to_record()

    reduction = None
    if config.baseline_log:
        baseline_mean = _baseline_token_mean(config.baseline_log)
        reduction = metrics.TokenStats(report.token_mean, report.time_mean_ms).reduction_vs(
            baseline_mean
        )
        report_doc["baseline_token_mean"] = baseline_mean
        report_doc["reduction_vs_baseline"] = reduction

    write_json(config.report, report_doc, "report")

    columns = ["question_id", "rouge_l", "em", "retrace", "hit", "cited", "gold", "tokens", "latency_ms"]
    table_lines = ["\t".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            if isinstance(value, float):
                cells.append(f"{value:.6f}")
            elif isinstance(value, list):
                cells.append(json.dumps(value))
            else:
                cells.append("" if value is None else str(value))
        table_lines.append("\t".join(cells))
    write_text(config.report + ".records.tsv", "\n".join(table_lines) + "\n", "record table")
    _write_snapshot(config, config.report)

    print(f"records:   {report.n}")
    print(f"ROUGE-L:   {report.rouge_l_mean:.4f}")
    print(f"EM:        {report.em_mean:.4f}")
    print(f"Hits:      {_fmt_rate(report.hits)}")
    print(f"Error:     {_fmt_rate(report.error)}")
    print(f"Retrace:   {report.retrace_rate:.4f}")
    print(f"tokens:    {report.token_mean:.2f} mean")
    print(f"time:      {report.time_mean_ms:.2f} ms mean")
    if reduction is not None:
        print(f"reduction vs baseline: {reduction * 100:.1f}%")
    return 0


# -------------------------------------------------------------------- main

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file, overridden by explicit flags")
    parser.add_argument("--provider", choices=["live", "mock", "replay"])
    parser.add_argument("--transcript", help="transcript file for the replay provider")
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillpath",
        description="Generate reasoning-path collections, answer questions with them, evaluate runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a per-question example collection")
    p_gen.add_argument("--corpus")
    p_gen.add_argument("--collection", help="output collection bundle path")
    p_gen.add_argument("--delta", type=int, help="similarity threshold, 1 to 10")
    p_gen.add_argument("--count", type=int, help="target examples per question")
    p_gen.add_argument("--gen-mode", dest="gen_mode", choices=sorted(_GEN_MODES))
    _add_common(p_gen)

    p_ans = sub.add_parser("answer", help="answer a corpus with guided reasoning paths")
    p_ans.add_argument("--corpus")
    p_ans.add_argument("--collection")
    p_ans.add_argument("--run-log", dest="run_log", help="output trace log path")
    p_ans.add_argument("--select-mode", dest="select_mode", choices=sorted(_SELECT_MODES))
    _add_common(p_ans)

    p_eval = sub.add_parser("eval", help="score a run log against gold records")
    p_eval.add_argument("--corpus")
    p_eval.add_argument("--run-log", dest="run_log")
    p_eval.add_argument("--report", help="output report path")
    p_eval.add_argument("--baseline-log", dest="baseline_log", help="run log to compute token reduction against")
    _add_common(p_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        command = {"generate": cmd_generate, "answer": cmd_answer, "eval": cmd_eval}[config.command]
        return command(config)
    except SkillPathError as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
