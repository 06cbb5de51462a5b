"""End-to-end benchmark of the skillpath batch pipeline.

    python3 bench/run.py --workload mock-serial --seed 1 --seconds 25 --trace 0

Each round drives the real command line path in-process, generate, then
answer, then eval, on a synthetic corpus made from the seed, and every
command writes into a fresh directory. Rounds repeat until the time is
up; the metrics are medians over rounds. Every round's outputs are
checked against a reference round before any number is reported.

Command times are wall seconds with their CPU part rescaled to nominal
machine speed by a calibration loop timed around each command (see
calibrate.py); waiting is not rescaled. With --trace 0 the end-to-end
metrics are printed, measured with tracing off. With --trace 1 untraced
and traced rounds alternate: the traced ones give the per-layer metrics
and the pair gives the tracing overhead. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import instrument
import synth_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

GEN_FLAGS = ["--gen-mode", "guided-fill", "--count", "5", "--delta", "7"]
ANSWER_FLAGS = ["--select-mode", "full"]
COMMANDS = ("generate", "answer", "eval")
# a measured command repeats until it has run this long in a round
MIN_COMMAND_S = 0.5
TAGS = ["substitution", "similarity", "strategy", "reference", "segment", "answer"]
SETUP_PROBES = 7
TAIL_PERCENTILES = [50, 75, 90, 95, 99, 99.9]


@dataclass(frozen=True)
class Workload:
    shape: synth_corpus.Shape
    provider: str  # "mock", or "replay" of a run recorded with the mock
    parallelism: int
    delay_ms: float  # mean modelled network delay per outermost provider call


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "mock-serial": Workload(synth_corpus.Shape(400, (2, 5), (10, 40)), "mock", 1, 0.0),
    "latency-parallel": Workload(synth_corpus.Shape(120, (2, 5), (10, 40)), "mock", _nproc(), 10.0),
    "replay-longdocs": Workload(synth_corpus.Shape(100, (4, 8), (40, 80)), "replay", 1, 0.0),
}


@dataclass
class Round:
    seconds: dict[str, float] = field(default_factory=dict)  # command -> seconds per run, nominal speed
    digests: dict[str, str] = field(default_factory=dict)  # command -> digest of its outputs
    report: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)  # (command, tag) -> outermost provider calls
    tokens: dict = field(default_factory=dict)
    provider_failed: int = 0
    wait_s: float = 0.0
    attempted: int = 0
    unexpected: int = 0
    problems: list[str] = field(default_factory=list)
    failed: dict[str, int] = field(default_factory=dict)  # command -> questions failed in its first run
    spans: list[instrument.Span] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    answer_ms: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        from skillpath.resources import load_entity_pool

        self.workload = workload
        self.work = work
        self.corpus = synth_corpus.generate(seed, workload.shape, load_entity_pool())
        self.corpus_path = work / "corpus.jsonl"
        self.corpus.write(str(self.corpus_path))
        self.n = len(self.corpus.rows)
        self.expected_failures = set(self.corpus.expected_failures)
        self.successes = [r["question_id"] for r in self.corpus.rows
                          if r["question_id"] not in self.expected_failures]
        self.transcripts: dict[str, Path] = {}
        self.meter = instrument.ProviderMeter()
        self.meter.install()
        self.tracer = instrument.Tracer()
        self.tracer.set_corpus(self.corpus.rows)
        self.rounds_made = 0
        self.reference: Round | None = None

    # ------------------------------------------------------------ commands

    def _command(self, command: str, argv: list[str]) -> tuple[int, float, set[str]]:
        """Exit code, seconds at nominal machine speed, and the questions reported failed."""
        import skillpath.cli

        before = calibrate.slice_seconds()
        self.meter.command = command
        self.tracer.command = command
        out, err = io.StringIO(), io.StringIO()
        started, cpu_started = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = skillpath.cli.main([command, *argv])
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        seconds = calibrate.nominal_seconds(wall, cpu, before, calibrate.slice_seconds())
        failed = set(re.findall(rf"^\[{command}\] question (\S+): ", err.getvalue(), re.MULTILINE))
        if code not in (0, 1):
            sys.stderr.write(err.getvalue())
        return code, seconds, failed

    @contextlib.contextmanager
    def _recording(self, command: str):
        """Run the mock behind RecordingProvider and keep the transcript."""
        import skillpath.cli
        from skillpath.providers import RecordingProvider

        canned = skillpath.cli.CannedProvider
        recorders = []

        def recorded(*args, **kwargs):
            recorders.append(RecordingProvider(canned(*args, **kwargs)))
            return recorders[-1]

        skillpath.cli.CannedProvider = recorded
        try:
            yield
        finally:
            skillpath.cli.CannedProvider = canned
        if len(recorders) != 1:
            raise instrument.HookError(f"{command} built {len(recorders)} mock providers, expected 1")
        path = self.work / f"{command}.transcript.jsonl"
        transcript = recorders[0].transcript
        transcript.save(str(path))
        self.transcripts[command] = path
        recorded_calls = sum(v for (c, _), v in self.meter.calls.items() if c == command)
        if recorded_calls != len(transcript.entries):
            raise instrument.HookError(
                f"{command}: counted {recorded_calls} outermost calls for "
                f"{len(transcript.entries)} recorded exchanges")

    # -------------------------------------------------------------- rounds

    def round(self, *, reference: bool = False, traced: bool = False) -> Round:
        """One pass of generate, answer and eval, checked.

        In a measured untraced round a command repeats, each run in a fresh
        directory, until it has run MIN_COMMAND_S; every repeat must give
        the first run's outputs and provider counts.
        """
        wl = self.workload
        replay = wl.provider == "replay" and not reference
        once = reference or traced
        self.meter.delay_mean_s = 0.0 if reference else wl.delay_ms / 1000.0
        base = self.work / f"round{self.rounds_made}"
        self.rounds_made += 1
        common = ["--provider", "replay" if replay else "mock",
                  "--parallelism", str(1 if reference else wl.parallelism)]
        inputs: dict[str, Path] = {}

        def argv(command: str, out: Path) -> list[str]:
            args = ["--corpus", str(self.corpus_path)]
            if command == "generate":
                args += ["--collection", str(out / "bundle.json"), *GEN_FLAGS, *common]
            elif command == "answer":
                args += ["--collection", str(inputs["generate"]), "--run-log", str(out / "run.jsonl"),
                         *ANSWER_FLAGS, *common]
            else:
                args += ["--run-log", str(inputs["answer"]), "--report", str(out / "report.json")]
            if replay and command != "eval":
                args += ["--transcript", str(self.transcripts[command])]
            return args

        result = Round()
        if traced:
            self.tracer.install()
            self.meter.tracer = self.tracer
        try:
            for command in COMMANDS:
                total, runs, first_counts = 0.0, 0, None
                while runs == 0 or (not once and total < MIN_COMMAND_S):
                    out = base / f"{command}{runs}"
                    out.mkdir(parents=True)
                    self.meter.reset()
                    record = reference and wl.provider == "replay" and command != "eval"
                    with self._recording(command) if record else contextlib.nullcontext():
                        code, seconds, failed = self._command(command, argv(command, out))
                    total += seconds
                    runs += 1
                    self._check_exit(result, command, code, failed)
                    path, digest = self._outputs(result, command, out)
                    counts = (dict(self.meter.calls), dict(self.meter.tokens))
                    if first_counts is None:
                        first_counts = counts
                        inputs[command] = path
                        result.digests[command] = digest
                        result.failed[command] = len(failed)
                        result.calls.update(counts[0])
                        result.tokens.update(counts[1])
                        result.provider_failed += self.meter.failed
                        result.wait_s += self.meter.wait_s
                    elif (digest, counts) != (result.digests[command], first_counts):
                        result.problems.append(f"a repeated {command} run differs from the first")
                result.seconds[command] = total / runs
        finally:
            if traced:
                self.meter.tracer = None
                self.tracer.uninstall()
        if traced:
            result.spans = self.tracer.take()
        shutil.rmtree(base)
        if reference:
            self.reference = result
        else:
            ref = self.reference
            if result.digests != ref.digests:
                result.problems.append("outputs differ from the reference round")
            if (result.calls, result.tokens) != (ref.calls, ref.tokens):
                result.problems.append("provider calls or tokens differ from the reference round")
        return result

    def _check_exit(self, result: Round, command: str, code: int, failed: set[str]) -> None:
        """Exit code and failed questions are exactly the expected ones."""
        problems = result.problems
        if command == "eval":
            result.attempted += len(self.successes)
            if code != 0:
                problems.append(f"eval exited {code}, expected 0")
            return
        result.attempted += self.n
        want = 1 if self.expected_failures else 0
        if code != want:
            problems.append(f"{command} exited {code}, expected {want}")
        result.unexpected += len(failed - self.expected_failures)
        if failed != self.expected_failures:
            problems.append(f"{command} failed {sorted(failed)}, expected {sorted(self.expected_failures)}")

    def _outputs(self, result: Round, command: str, out: Path) -> tuple[Path, str]:
        """The command's main output file and a digest of what it wrote.

        The outputs must hold exactly the questions that did not fail. A
        bundle's digest covers its collections, not its creation time.
        """
        want = len(self.successes)
        try:
            if command == "generate":
                path = out / "bundle.json"
                collections = json.loads(path.read_text(encoding="utf-8"))["collections"]
                if sorted(collections) != sorted(self.successes):
                    result.problems.append(f"bundle holds {len(collections)} collections, expected {want}")
                data = json.dumps(collections, sort_keys=True).encode("utf-8")
            elif command == "answer":
                path = out / "run.jsonl"
                data = path.read_bytes()
                logged = [json.loads(line)["question_id"] for line in data.decode("utf-8").splitlines()]
                if logged != self.successes:
                    result.problems.append(
                        f"run log holds {len(logged)} questions, expected {want} in corpus order")
            else:
                path = out / "report.json"
                data = path.read_bytes()
                result.report = json.loads(data)
                if result.report.get("n") != want:
                    result.problems.append(f"report scores {result.report.get('n')} records, expected {want}")
                data += Path(f"{path}.records.tsv").read_bytes()
        except (OSError, ValueError, KeyError) as exc:
            result.problems.append(f"{command}: missing or unreadable output: {exc}")
            return out, ""
        return path, hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ metrics

def setup_seconds(bench: Bench) -> float:
    """Median over fresh interpreters of import plus a one-question run."""
    row = next(r for r in bench.corpus.rows if r["question_id"] not in bench.expected_failures)
    probe_dir = bench.work / "probe"
    probe_dir.mkdir()
    one = probe_dir / "one.jsonl"
    bench.corpus.write(str(one), [row])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for i in range(SETUP_PROBES):
        out_dir = probe_dir / str(i)
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(one), str(out_dir)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def end_to_end(bench: Bench, rounds: list[Round], setup_s: float) -> dict:
    n = bench.n
    last = rounds[-1]
    metrics = {"setup_s": setup_s}
    for command in COMMANDS:
        metrics[f"{command}_qps"] = statistics.median(n / r.seconds[command] for r in rounds)
    for command in ("generate", "answer"):
        metrics[f"{command}_calls_per_q"] = sum(v for (c, _), v in last.calls.items() if c == command) / n
        metrics[f"{command}_tokens_per_q"] = sum(v for (c, _), v in last.tokens.items() if c == command) / n
    metrics["failed_frac"] = (last.failed["generate"] + last.failed["answer"]) / (2 * n)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for key in ("rouge_l_mean", "em_mean", "hits"):
        metrics[key] = float(last.report[key])
    return metrics


def _tail(durations_ms: list[float]) -> tuple[float, float, float]:
    """p50, and the highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(durations_ms)
    count = len(ordered)
    if not count:  # every answer failed; the run is already marked incorrect
        return 0.0, 0.0, 0.0

    def at(p: float) -> float:
        return ordered[max(0, math.ceil(p / 100 * count) - 1)]

    tail_p = max([p for p in TAIL_PERCENTILES if count - math.ceil(p / 100 * count) >= 10], default=50)
    return at(50), at(tail_p), tail_p


def _layer_round(bench: Bench, r: Round) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    n = bench.n
    self_t = instrument.self_times(r.spans)
    by_name: dict[str, list[instrument.Span]] = {}
    layer_self: dict[str, float] = {}
    cli_self: dict[str, float] = {}
    for s in r.spans:
        by_name.setdefault(s.name, []).append(s)
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + self_t[s.id]
        if s.layer == "cli":
            cli_self[s.command] = cli_self.get(s.command, 0.0) + self_t[s.id]

    def total_s(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def items_in(name: str) -> int:
        return sum(s.n_in or 0 for s in by_name.get(name, ()))

    def items_out(name: str) -> int:
        return sum(s.n_out or 0 for s in by_name.get(name, ()))

    extract_calls = count("answerer.extract_relevant_segment")
    segment_calls = sum(v for (_, t), v in r.calls.items() if t == "segment")
    scored = items_in("examplegen.filter_candidates")
    out = {
        "corpus.load_s": total_s("corpus.load_records"),
        "corpus.self_s": layer_self.get("corpus", 0.0),
        "corpus.sentences_per_q": bench.corpus.sentences_per_question,
        "textutil.split_calls_per_q": count("textutil.split_sentences") / n,
        "textutil.sentences_split_per_q": items_out("textutil.split_sentences") / n,
        "textutil.split_s": total_s("textutil.split_sentences"),
        "decompose.tag_s": total_s("decompose.RuleBasedTagger.tag"),
        "decompose.self_s": layer_self.get("decompose", 0.0),
        "examplegen.candidates_per_q": items_out("examplegen.generate_candidates") / n,
        "examplegen.kept_ratio": items_out("examplegen.filter_candidates") / scored if scored else 0.0,
        "examplegen.score_s": total_s("examplegen.score_candidates"),
        "examplegen.synth_s": total_s("examplegen.synthesize_example"),
        "examplegen.self_s": layer_self.get("examplegen", 0.0),
        "collection.persist_s": total_s("collection.persist_bundle"),
        "collection.restore_s": total_s("collection.restore_bundle"),
        "collection.self_s": layer_self.get("collection", 0.0),
        "matcher.select_s": total_s("matcher.select_best"),
        "answerer.extract_calls_per_q": extract_calls / n,
        "answerer.extract_retry_ratio": segment_calls / extract_calls - 1 if extract_calls else 0.0,
        "answerer.self_s": layer_self.get("answerer", 0.0),
        "metrics.attribute_s": total_s("metrics.attribute_citations"),
        "metrics.evaluate_s": total_s("metrics.evaluate_records"),
        "metrics.self_s": layer_self.get("metrics", 0.0),
        "providers.wait_s": r.wait_s,
        "providers.failed": float(r.provider_failed),
        "providers.self_s": layer_self.get("providers", 0.0),
    }
    for tag in TAGS:
        out[f"providers.calls_per_q.{tag}"] = sum(v for (_, t), v in r.calls.items() if t == tag) / n
        out[f"providers.tokens_per_q.{tag}"] = sum(v for (_, t), v in r.tokens.items() if t == tag) / n
    for command in COMMANDS:
        out[f"cli.self_s.{command}"] = cli_self.get(command, 0.0)
    return out


def per_layer(traced: list[Round], untraced: list[Round]) -> dict:
    metrics = {key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers}
    p50, tail, tail_p = _tail([ms for r in traced for ms in r.answer_ms])
    metrics["answerer.answer_p50_ms"] = p50
    metrics["answerer.answer_tail_ms"] = tail
    metrics["answerer.answer_tail_pct"] = tail_p
    traced_s = statistics.median(r.wall for r in traced)
    metrics["trace.overhead_frac"] = traced_s / statistics.median(r.wall for r in untraced) - 1
    print(f"answer spans: {sum(len(r.answer_ms) for r in traced)}, tail percentile p{tail_p:g}")
    return metrics


# --------------------------------------------------------------------- main

def _digest(r: Round) -> str:
    return hashlib.sha256("".join(r.digests[c] for c in COMMANDS).encode()).hexdigest()[:16]


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(WORKLOADS[workload_name], seed, work)
    setup_s = None if trace else setup_seconds(bench)
    bench.round(reference=True)
    rounds: list[Round] = []
    traced: list[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(bench.round())
        if trace:
            if traced:
                traced[-1].spans = []  # the span file holds the last traced round
            r = bench.round(traced=True)
            r.layers = _layer_round(bench, r)
            r.answer_ms = [(s.end - s.start) * 1000.0 for s in r.spans if s.name == "answerer.answer"]
            traced.append(r)
        if time.perf_counter() >= deadline:
            break

    every = [bench.reference, *rounds, *traced]
    problems = [p for r in every for p in r.problems]
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=sys.stderr)
    measured = rounds + traced
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.unexpected for r in measured)
    if trace:
        metrics = per_layer(traced, rounds)
        spans_path = WORK_ROOT / f"spans-{workload_name}.jsonl"
        instrument.write_spans(traced[-1].spans, str(spans_path))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(bench, rounds, setup_s)
    print(f"workload {workload_name} seed {seed}: {bench.n} questions, "
          f"{len(rounds)} untraced and {len(traced)} traced rounds, output digest {_digest(bench.reference)}")
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skillpath" / "__init__.py").is_file():
        print(f"error: no skillpath package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skillpath.cli  # noqa: F401  (load every module the hooks target)

    # the handler the command line would install, bound to the real stderr
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
