"""generate then answer over the live provider, against a loopback endpoint that answers each prompt as
the mock does and reports no usage, gives the mock's bundle collections and run log at any parallelism."""

from __future__ import annotations

import json
from importlib import resources as package_files

import pytest

from skillpath import canned, cli
from skillpath.cli import main
from skillpath.providers import RecordingProvider

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


def run(tmp_path, capsys, provider, parallelism):
    """Exit codes, stderr, bundle collections and run-log lines less latency_ms, of generate then answer."""
    out = tmp_path / f"{provider}-{parallelism}"
    out.mkdir()
    bundle, run_log = str(out / "bundle.json"), str(out / "run.jsonl")
    common = ["--provider", provider, "--corpus", str(tmp_path / "corpus.jsonl"), "--parallelism", str(parallelism)]
    codes = (main(["generate", *common, "--collection", bundle, "--count", "2"]),
             main(["answer", *common, "--collection", bundle, "--run-log", run_log]))
    with open(bundle, encoding="utf-8") as fh:
        collections = json.load(fh)["collections"]
    with open(run_log, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    for line in lines:
        del line["latency_ms"]
    return codes, capsys.readouterr().err.replace(str(out), "<out>"), collections, lines


def test_the_stage_table_names_every_prompt_template_and_every_canned_stage():
    prompts = package_files.files("skillpath").joinpath("prompts")
    templates = {item.name.removesuffix(".txt") for item in prompts.iterdir()}
    assert set(STAGES) == templates
    assert set(STAGES.values()) == set(canned._HANDLERS)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_live_gives_the_mock_outputs(tmp_path, capsys, monkeypatch, live_endpoint, parallelism):
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in corpus_rows())
    recorders = []
    canned_provider = cli.CannedProvider

    def recorded():
        recorders.append(RecordingProvider(canned_provider()))
        return recorders[-1]

    monkeypatch.setattr(cli, "CannedProvider", recorded)
    mock = run(tmp_path, capsys, "mock", 1)
    live_endpoint.reply = canned_completion
    live = run(tmp_path, capsys, "live", parallelism)

    assert live == mock
    # each question but the one with no entity was answered; it failed both commands alike
    codes, err, collections, lines = mock
    assert codes == (1, 1) and len(collections) == len(lines) == 24
    assert err.count("question none: ") == 2
    # one request per mock call: no retry, and no call the mock did not make
    assert len(live_endpoint.received) == sum(len(r.transcript.entries) for r in recorders)
