"""Batch front end: generate collections, answer corpora, evaluate runs.

COMMANDS says which settings each command reads and takes flags for; a
shared config file's other known keys are type-checked, then ignored.
Flags beat a config file, the one other source of settings, and the
snapshot next to every output lists exactly the settings read, as a
valid --config file, so a run can be reproduced from its artifacts alone.
Each command reads all of its input files, and checks that it can write
its output and the snapshot beside it, before its first provider call.

--parallelism N runs N * N questions at once, each one call at a time, so
at most N * N provider calls are in flight. _run_questions is the one
place that schedules work: it runs the questions on min(N * N, questions)
lanes, the calling thread and helper threads it joins before it returns,
so --parallelism 1 sends one request at a time, and no thread outlives a
command. A question's SkillPathError is printed and fails that question
only; any other error is raised once every question has run, the first
in input order, at any N. A question's requests are fingerprinted under
its id (providers.question_scope), so a recorded run replays byte for
byte at any parallelism, for any subset of its questions in any order.
Files are always written by one writer in input order. A run log's
latency_ms is the sum of a question's call latencies, not its wall time.

A live backend's replies go to a journal beside the output, removed once
every question succeeds, so a rerun sends only the requests it lacks
(providers.JournalProvider). eval reads each run-log line, which must be
of a corpus question, into a metrics.EvalRecord with its gold data.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import os
import random
import sys
import threading
import typing

from . import answerer, collection as collection_mod, corpus as corpus_mod, examplegen, metrics
from .canned import CannedProvider
from .decompose import decompose_question
from .errors import NoCandidates, SkillPathError, StorageError, UnmatchedQuestionId
from .matcher import SelectionMode
from .providers import (CompletionResult, JournalProvider, LiveProvider, Provider, ReplayProvider, TokenUsage,
                        question_scope)
from .resources import (check_writable, json_line, parse_jsonl, read_json, read_keyed, read_lines, write_json,
                        write_lines, write_text)

# setting -> the values it takes
_CHOICES = {"gen_mode": tuple(sorted(mode.value for mode in examplegen.ConstructionMode)),
            "select_mode": tuple(sorted(mode.value for mode in SelectionMode)),
            "provider": ("live", "mock", "replay")}
# candidates requested per question before filtering trims to --count
_OVERGENERATION = 2


class RunConfig:
    """A command's settings: a default here, then its config file's value, then its flag's."""

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

    def __init__(self, **settings):
        vars(self).update(settings)

    def settings(self) -> dict:
        """The settings its command reads, by name."""
        return {name: getattr(self, name) for name in COMMANDS[self.command].settings}


# setting -> the value types a config file may give it
_FIELD_TYPES = {name: typing.get_args(hint) or (hint,)
                for name, hint in typing.get_type_hints(RunConfig).items() if name != "command"}


class ConfigError(SkillPathError):
    pass


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    reads = COMMANDS[args.command].settings
    spelled = {}  # setting -> the config file's key that names it

    if args.config:
        doc = read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        for key, value in doc.items():
            attr = key.replace("-", "_")
            if attr not in _FIELD_TYPES:
                raise ConfigError(f"config file {args.config}: unknown setting {key!r}")
            if attr in spelled:
                raise ConfigError(f"config file {args.config}: {spelled[attr]!r} and {key!r}"
                                  " name one setting")
            spelled[attr] = key
            expected = _FIELD_TYPES[attr]
            if not isinstance(value, expected) or (isinstance(value, bool) and bool not in expected):
                raise ConfigError(f"config file {args.config}: {key} has the wrong type: {value!r}")
            # a shared file's settings that this command does not read keep their defaults
            if attr in reads:
                setattr(config, attr, value)

    for name in reads:
        flag_value = getattr(args, name)
        if flag_value is not None:
            setattr(config, name, flag_value)

    for name, problem in _problems(config):  # the first check that fails
        from_file = name in spelled and getattr(args, name, None) is None
        raise ConfigError(f"config file {args.config}: {problem}" if from_file else problem)
    return config


def _problems(config: RunConfig):
    """(setting, what is wrong) of each failing check; every default passes, so an unread setting fails none."""
    for name, choices in _CHOICES.items():
        if getattr(config, name) not in choices:
            yield name, f"unknown {name.replace('_', ' ')} {getattr(config, name)!r}"
    if not 1 <= config.delta <= 10:
        yield "delta", f"delta must lie in [1, 10], got {config.delta}"
    if config.count < 1:
        yield "count", "count must be at least 1"
    if config.select_mode == "random" and config.seed is None:
        yield "select_mode", "selection mode random requires --seed"
    if config.parallelism < 1:
        yield "parallelism", "parallelism must be at least 1"
    if config.provider == "replay" and not config.transcript:
        yield "provider", "provider replay requires --transcript"
    for name in _REQUIRED:
        if name in COMMANDS[config.command].settings and not getattr(config, name):
            yield name, f"--{name.replace('_', '-')} is required for {config.command}"


def _build_provider(config: RunConfig, output_path: str) -> tuple[Provider, str | None]:
    """The backend, and the journal it keeps beside the output; only a live backend, whose calls cost, keeps one."""
    if config.provider == "mock":
        return CannedProvider(), None
    if config.provider == "replay":
        return ReplayProvider.from_file(config.transcript), None
    journal = output_path + ".journal.jsonl"
    return JournalProvider(LiveProvider(), journal), journal


def _check_outputs(output_path: str, what: str, *beside: tuple[str, str]) -> None:
    """Fail now where the output, its config snapshot or a (suffix, what) file beside it cannot be written."""
    for suffix, kind in (("", what), (".config.json", "config snapshot"), *beside):
        check_writable(output_path + suffix, kind)


def _write_snapshot(config: RunConfig, output_path: str) -> None:
    write_json(output_path + ".config.json", {"command": config.command, "config": config.settings()},
               "config snapshot")


def _run_questions(
    config: RunConfig, records: list[corpus_mod.QARecord], attempt
) -> tuple[dict, int]:
    """attempt(record) for every record in its question's scope, N * N questions at once at parallelism N.

    The calling thread is one lane and each further lane a helper thread,
    joined before this returns; each lane takes the next question left
    until none is. Where no thread can be started, the calling thread runs
    what is left. Returns the values of the questions that succeeded, by
    question id in input order, and how many failed. A SkillPathError
    fails its question and is printed. Every question runs, also after an
    unexpected error; the first one in input order is then raised, so the
    questions run and the error reported depend neither on thread timing
    nor on N. Any other BaseException, on any lane, stops the queue and is
    raised once the lanes are joined.
    """
    queue = collections.deque(range(len(records)))
    results: list = [None] * len(records)
    failures: dict[int, str] = {}
    unexpected: dict[int, Exception] = {}
    escaped: list[BaseException] = []

    def lane() -> None:
        while True:
            try:
                index = queue.popleft()
            except IndexError:
                return
            try:
                with question_scope(records[index].question_id):
                    results[index] = attempt(records[index])
            except SkillPathError as exc:
                failures[index] = str(exc)  # a kept error would tie results into a cycle through its traceback
            except Exception as exc:
                unexpected[index] = exc

    def helper_lane() -> None:
        try:
            lane()
        except BaseException as exc:  # re-raised on the calling thread
            queue.clear()  # so no lane begins another question
            escaped.append(exc)

    helpers = []
    try:
        try:
            for _ in range(min(config.parallelism * config.parallelism, len(records)) - 1):
                helper = threading.Thread(target=helper_lane, name="skillpath-question", daemon=True)
                helper.start()
                helpers.append(helper)
        except RuntimeError:
            pass  # no thread to be had
        lane()
    finally:
        queue.clear()  # after an interrupt, questions not yet begun are dropped
        for helper in helpers:
            helper.join()
    if escaped:
        raise escaped[0]
    if unexpected:
        raise unexpected[min(unexpected)]
    done = {}
    for index, record in enumerate(records):
        if index in failures:
            print(f"[{config.command}] question {record.question_id}: {failures[index]}", file=sys.stderr)
        else:
            done[record.question_id] = results[index]
    return done, len(failures)


# ---------------------------------------------------------------- generate

def cmd_generate(config: RunConfig) -> int:
    records = corpus_mod.load_records(config.corpus)
    mode = examplegen.ConstructionMode(config.gen_mode)
    _check_outputs(config.collection, "collection bundle")
    backend, journal = _build_provider(config, config.collection)

    def work(record: corpus_mod.QARecord) -> collection_mod.ExampleCollection:
        qid = record.question_id
        template = decompose_question(record.question)
        rng = random.Random(f"{config.seed if config.seed is not None else 0}:{qid}")
        candidates = examplegen.generate_candidates(template, mode, count=config.count * _OVERGENERATION,
                                                    provider=backend, rng=rng)
        scored = examplegen.score_candidates(record.question, candidates, backend)
        kept = examplegen.filter_candidates(scored, config.delta)
        if not kept:
            raise NoCandidates(qid)
        examples = examplegen.synthesize_example([c.text for c in kept[: config.count]], backend)
        return collection_mod.build_collection(examples)

    bundle, failures = _run_questions(config, records, work)

    if bundle:
        collection_mod.persist_bundle(bundle, config.collection)
        _write_snapshot(config, config.collection)
    if journal and not failures:
        os.remove(journal)

    print(f"generated collections for {len(bundle)} of {len(records)} question(s)")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ answer

def cmd_answer(config: RunConfig) -> int:
    records = corpus_mod.load_records(config.corpus)
    bundle = collection_mod.restore_bundle(config.collection)
    mode = SelectionMode(config.select_mode)
    _check_outputs(config.run_log, "run log")
    provider, journal = _build_provider(config, config.run_log)

    def work(record: corpus_mod.QARecord) -> dict:
        qid = record.question_id
        if qid not in bundle:
            raise UnmatchedQuestionId(f"bundle {config.collection} holds no collection for question {qid!r}")
        gamma = bundle[qid]
        # seeded per question, so random selection draws anew for each one
        match = answerer.select_for(gamma, mode, f"{config.seed}:{qid}")
        document = "\n\n".join(record.documents)
        example = gamma.examples[match.selected_index]
        trace = answerer.answer(record.question, document, example, provider)
        return {
            **trace._asdict(),
            "usage": trace.usage._asdict(),
            "question_id": qid,
            "selected_example_id": match.selected_index,
            "match": match.to_record(),
        }

    answered, failures = _run_questions(config, records, work)
    total_tokens = sum(line["usage"]["total_tokens"] for line in answered.values())

    write_lines(config.run_log, (json_line(line) + "\n" for line in answered.values()), "run log")
    _write_snapshot(config, config.run_log)
    if journal and not failures:
        os.remove(journal)

    print(
        f"answered {len(answered)} of {len(records)} record(s), "
        f"{failures} failure(s), {total_tokens} total tokens"
    )
    return 0 if failures == 0 else 1


# -------------------------------------------------------------------- eval

def _logged_answer(doc: dict, records: dict[str, corpus_mod.QARecord]) -> metrics.EvalRecord:
    """One run-log line, of a question in `records`, joined with that question's gold answers and sentences."""
    qid, answer, completion = [doc[key] for key in ("question_id", "answer", "completion")]
    if not all(isinstance(text, str) for text in (qid, answer, completion)):
        raise ValueError("question_id, answer and completion must each be a string")
    if qid not in records:
        raise ValueError(f"question_id {qid!r} is not in the corpus")
    usage = doc["usage"]
    if not isinstance(usage, dict):
        raise ValueError("usage must be an object of token counts")
    counts = [usage[key] for key in ("prompt_tokens", "completion_tokens", "total_tokens")]
    # the logged completion passes the same checks as a provider's reply
    reply = CompletionResult(completion, TokenUsage(*counts), doc.get("latency_ms", 0.0))
    gold = records[qid]
    return metrics.EvalRecord(qid, answer, gold.gold_answers, gold_sentences=gold.gold_sentence_ids,
                              chain_text=completion, usage=reply.usage, latency_ms=float(reply.latency_ms))


def _load_run_log(path: str, what: str, records: dict[str, corpus_mod.QARecord]) -> list[metrics.EvalRecord]:
    """Every line of a run log, checked; a log with no lines is an error naming its path."""
    entries = read_keyed(parse_jsonl(read_lines(path, what), path), path, "question_id",
                         lambda doc: _logged_answer(doc, records))
    if not entries:
        raise StorageError(f"{what} {path} has no lines")
    return list(entries.values())


def _baseline_token_mean(path: str, records: dict[str, corpus_mod.QARecord]) -> float:
    totals = [entry.usage.total_tokens for entry in _load_run_log(path, "baseline log", records)]
    if not any(totals):
        raise StorageError(f"baseline log {path} has a mean of 0 total tokens to reduce against")
    return sum(totals) / len(totals)


def _fmt_rate(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def cmd_eval(config: RunConfig) -> int:
    records = {r.question_id: r for r in corpus_mod.load_records(config.corpus)}
    eval_records = [
        entry._replace(cited_sentences=metrics.attribute_citations(
            entry.chain_text, list(records[entry.question_id].documents)))
        for entry in _load_run_log(config.run_log, "run log", records)
    ]
    _check_outputs(config.report, "report", (".records.tsv", "record table"))

    report, rows = metrics.evaluate_records(eval_records)
    report_doc = report.to_record()

    reduction = None
    if config.baseline_log:
        baseline_mean = _baseline_token_mean(config.baseline_log, records)
        reduction = metrics.TokenStats(report.token_mean, report.time_mean_ms).reduction_vs(
            baseline_mean
        )
        report_doc["baseline_token_mean"] = baseline_mean
        report_doc["reduction_vs_baseline"] = reduction

    write_json(config.report, report_doc, "report")

    # _load_run_log refuses an empty log, so there is a first row
    columns = list(rows[0])
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

class Command(typing.NamedTuple):
    run: typing.Callable[[RunConfig], int]
    help: str
    settings: tuple[str, ...]  # the settings it reads, and the only flags it takes besides --config


# the settings that pick, pace and seed a provider; eval makes no provider call
_PROVIDER_SETTINGS = ("provider", "transcript", "parallelism", "seed")

COMMANDS = {
    "generate": Command(cmd_generate, "synthesize a per-question example collection",
                        ("corpus", "collection", "delta", "count", "gen_mode", *_PROVIDER_SETTINGS)),
    "answer": Command(cmd_answer, "answer a corpus with guided reasoning paths",
                      ("corpus", "collection", "run_log", "select_mode", *_PROVIDER_SETTINGS)),
    "eval": Command(cmd_eval, "score a run log against gold records",
                    ("corpus", "run_log", "report", "baseline_log")),
}

_REQUIRED = ("corpus", "collection", "run_log", "report")  # a command that reads one of these needs it
# setting -> the help of its flag
_HELP = {"delta": "similarity threshold, 1 to 10", "count": "target examples per question",
         "report": "output report path", "baseline_log": "run log to compute token reduction against",
         "transcript": "transcript file for the replay provider",
         "parallelism": "N * N questions at once, each one call at a time;"
                        " at most N * N provider calls in flight"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillpath",
        description="Generate reasoning-path collections, answer questions with them, evaluate runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        flags = sub.add_parser(name, help=command.help)
        for setting in command.settings:
            kind = int if int in _FIELD_TYPES[setting] else None
            flags.add_argument("--" + setting.replace("_", "-"), type=kind, choices=_CHOICES.get(setting),
                               help=_HELP.get(setting))
        flags.add_argument("--config", help="JSON config file, overridden by explicit flags")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return COMMANDS[config.command].run(config)
    except SkillPathError as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
