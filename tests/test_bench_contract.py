"""The names bench/ hooks must keep existing in the shape it expects.

bench/instrument.py is loaded read-only from the checkout. A refactor that
renames a traced function, overrides Provider.complete in a subclass or
stops building the mock through cli.CannedProvider fails here, instead of
only when the benchmark runs in traced mode.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import skillpath.cli as cli
from skillpath.providers import CompletionRequest, MockProvider, Provider, RecordingProvider, Transcript
from skillpath.resources import load_entity_pool

INSTRUMENT = os.path.join(os.path.dirname(__file__), "..", "bench", "instrument.py")


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(instrument):
    for module_name, targets in instrument.LAYERS.values():
        for target in targets:
            instrument._resolve(module_name, target)
    _, _, load = instrument._resolve("skillpath.providers", "Transcript.load")
    assert isinstance(load, classmethod)


def test_tracer_installs_and_uninstalls_cleanly(instrument):
    before = (cli.cmd_generate, Provider.complete, vars(Transcript)["load"])
    tracer = instrument.Tracer()
    try:
        tracer.install()
        assert cli.cmd_generate is not before[0]
    finally:
        tracer.uninstall()
    assert (cli.cmd_generate, Provider.complete, vars(Transcript)["load"]) == before


def test_provider_meter_sees_every_outermost_call(instrument):
    meter = instrument.ProviderMeter()
    original = Provider.complete
    try:
        # raises HookError when a subclass overrides complete()
        meter.install()
        recorder = RecordingProvider(cli.CannedProvider())
        recorder.complete(CompletionRequest("p", tag="similarity"))
    finally:
        meter._patches.undo()
    assert Provider.complete is original
    assert meter.calls[("", "similarity")] == 1
    assert len(recorder.transcript.entries) == 1
    assert callable(recorder.transcript.save)


def test_mock_commands_build_one_provider_through_cli_canned(tmp_path, monkeypatch):
    built = []
    canned = cli.CannedProvider

    def counting(*args, **kwargs):
        built.append((args, kwargs))
        return canned(*args, **kwargs)

    monkeypatch.setattr(cli, "CannedProvider", counting)
    provider, journal = cli._build_provider(cli.RunConfig(provider="mock"), str(tmp_path / "out.json"))
    assert isinstance(provider, MockProvider) and journal is None
    assert built == [((), {})]

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "question_id": "q1",
        "question": "Is the Eiffel Tower taller than the Brooklyn Bridge?",
        "documents": ["The Eiffel Tower is 330 metres tall."],
        "gold_answers": ["yes"],
    }) + "\n", encoding="utf-8")
    built.clear()
    assert cli.main(["generate", "--provider", "mock", "--corpus", str(corpus),
                     "--collection", str(tmp_path / "bundle.json"), "--count", "1"]) == 0
    assert built == [((), {})]


def test_traced_mock_run_fires_every_per_layer_hook(instrument, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({
        "question_id": "q1",
        "question": "Is the Eiffel Tower taller than the Brooklyn Bridge?",
        "documents": ["The Eiffel Tower is 330 metres tall. The Brooklyn Bridge is older."],
        "gold_answers": ["yes"],
    }) + "\n", encoding="utf-8")
    bundle, run_log = str(tmp_path / "bundle.json"), str(tmp_path / "run.jsonl")
    common = ["--provider", "mock", "--corpus", str(corpus)]
    tracer = instrument.Tracer()
    try:
        tracer.install()
        assert cli.main(["generate", *common, "--collection", bundle, "--count", "1"]) == 0
        assert cli.main(["answer", *common, "--collection", bundle, "--run-log", run_log]) == 0
        assert cli.main(["eval", "--corpus", str(corpus), "--run-log", run_log,
                         "--report", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    assert by_name.get("decompose.RuleBasedTagger.tag")
    assert by_name.get("metrics.attribute_citations")
    with open(run_log, encoding="utf-8") as fh:
        steps = len(json.loads(fh.readline())["focused_segments"])
    assert steps > 0
    assert len(by_name.get("answerer.extract_relevant_segment", [])) == steps
    # the answerer's own split of the question's document is a traced span under the answer
    (answer_span,) = by_name["answerer.answer"]
    parent_of = {span.id: span.parent for span in spans}

    def descends_from_answer(span):
        ancestor = span.parent
        while ancestor is not None and ancestor != answer_span.id:
            ancestor = parent_of.get(ancestor)
        return ancestor == answer_span.id

    assert any(descends_from_answer(s) for s in by_name.get("textutil.split_sentences", []))


def test_entity_pool_loads():
    assert load_entity_pool()


def test_importing_the_cli_loads_every_hooked_module(tmp_path):
    # a fresh interpreter: in this one, other tests have imported every module already
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import importlib.util, sys\n"
        "import skillpath.cli\n"
        "loaded = set(sys.modules)\n"
        "spec = importlib.util.spec_from_file_location('bench_instrument', sys.argv[1])\n"
        "instrument = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(instrument)\n"
        "missing = [m for m, _ in instrument.LAYERS.values() if m not in loaded]\n"
        "assert not missing, missing\n"
        "for module_name, targets in instrument.LAYERS.values():\n"
        "    for target in targets:\n"
        "        instrument._resolve(module_name, target)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, os.path.abspath(INSTRUMENT)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
