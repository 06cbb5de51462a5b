"""Regenerates the bundled test fixtures under tests/fixtures/.

Builds a two-question corpus, a handcrafted collection bundle, and a
recorded transcript of a scripted answering run. The transcript is
produced by driving the same library call the answer command uses, each
question in its own question scope as the command runs it, with the
provider wrapped in a recorder, so replaying it through the CLI hits
every fingerprint. Rerunning this script writes identical bytes.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from skillpath import answerer, corpus
from skillpath.collection import build_collection, persist_bundle
from skillpath.examplegen import ReasoningStrategy, SimilarExample
from skillpath.matcher import SelectionMode, select_best
from skillpath.providers import MockProvider, RecordingProvider, question_scope
from skillpath.skills import ReasoningSkill as S

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")

LENNON_DOC = (
    "John Lennon, the iconic musician and member of The Beatles, "
    "was born in Liverpool, England."
)
FILM_DOC = (
    "Nowhere Boy is a film that explores the early life of John Lennon, "
    "highlighting his formative years and influences."
)
EIFFEL_DOC = (
    "The Eiffel Tower is a wrought-iron lattice tower located on the Champ de Mars "
    "in Paris, France. It was constructed in 1889 as the entrance to the 1889 "
    "World's Fair. The tower stands approximately 324 meters tall and is one of "
    "the most recognized structures in the world."
)

RECORDS = [
    corpus.QARecord(
        question_id="q1",
        question="In what city was the subject of the film Nowhere Boy born?",
        documents=(LENNON_DOC, FILM_DOC),
        gold_answers=("Liverpool",),
        gold_sentence_ids=frozenset({(0, 0), (1, 0)}),
    ),
    corpus.QARecord(
        question_id="q2",
        question="In what year was the Eiffel Tower constructed?",
        documents=(EIFFEL_DOC,),
        gold_answers=("1889",),
        gold_sentence_ids=frozenset({(0, 1)}),
    ),
]


def build_bundle():
    q1_deep = SimilarExample(
        question="In what city was the subject of the film Rocketman born?",
        strategy=ReasoningStrategy(
            (
                "Identify who the film Rocketman is about.",
                "Find the city where that person was born.",
                "Combine both facts into the final answer.",
            ),
            (S.DEDUCTIVE, S.DEDUCTIVE, S.DECOMPOSITIONAL),
        ),
        reference_docs=(
            "Rocketman is a film about the musician Elton John.",
            "Elton John was born in Pinner, a town in Greater London.",
            "A question about the subject of a film resolves to the person the film portrays.",
        ),
        answer="The subject of the film Rocketman was born in Pinner.",
    )
    q1_shallow = SimilarExample(
        question="In what city was the subject of the film Gandhi born?",
        strategy=ReasoningStrategy(
            ("State the birthplace of the film's subject.",),
            (S.DEDUCTIVE,),
        ),
        reference_docs=("Gandhi, the subject of the film Gandhi, was born in Porbandar.",),
        answer="The subject of the film Gandhi was born in Porbandar.",
    )
    q2_single = SimilarExample(
        question="In what year was the Brooklyn Bridge constructed?",
        strategy=ReasoningStrategy(
            ("Find the stated construction year in the reference material.",),
            (S.DEDUCTIVE,),
        ),
        reference_docs=("The Brooklyn Bridge was constructed in 1883.",),
        answer="The Brooklyn Bridge was constructed in 1883.",
    )
    return {
        "q1": build_collection([q1_deep, q1_shallow]),
        "q2": build_collection([q2_single]),
    }


def scripted_reply(request):
    """Deterministic stand-in replies for the recorded answering run."""
    prompt = request.prompt
    if request.tag == "segment":
        if "Nowhere Boy" in prompt:
            # counted per prompt; the recording runs one step at a time
            seen = scripted_reply.counters.get(prompt, 0)
            scripted_reply.counters[prompt] = seen + 1
            if f"skill for this step: {S.DEDUCTIVE.display_name} " in prompt:
                return [FILM_DOC, LENNON_DOC][seen]
            return LENNON_DOC
        return "It was constructed in 1889 as the entrance to the 1889 World's Fair."
    if request.tag == "answer":
        if "Nowhere Boy" in prompt:
            return (
                "Document 2 states: Nowhere Boy is a film that explores the early life "
                "of John Lennon, highlighting his formative years and influences. "
                "Document 1 states: John Lennon, the iconic musician and member of The "
                "Beatles, was born in Liverpool, England. So the subject of the film was "
                "born in Liverpool. <answer>Liverpool</answer>"
            )
        return (
            "The document states: It was constructed in 1889 as the entrance to the "
            "1889 World's Fair. Therefore the year the tower went up is 1889. "
            "<answer>1889</answer>"
        )
    raise AssertionError(f"unexpected request tag {request.tag!r}")


scripted_reply.counters = {}


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    scripted_reply.counters = {}

    corpus.save_records(RECORDS, os.path.join(FIXTURES, "corpus.jsonl"))

    bundle = build_bundle()
    persist_bundle(bundle, os.path.join(FIXTURES, "collection.json"))

    recorder = RecordingProvider(MockProvider(scripted_reply))

    def answer_one(record):
        gamma = bundle[record.question_id]
        example = gamma.examples[select_best(gamma, SelectionMode.FULL).selected_index]
        document = "\n\n".join(record.documents)
        answerer.answer(record.question, document, example, recorder)

    for record in RECORDS:
        with question_scope(record.question_id):
            answer_one(record)
    transcript = recorder.transcript
    transcript.save(os.path.join(FIXTURES, "transcript.jsonl"))
    print(f"wrote {len(transcript.entries)} transcript entries to {FIXTURES}")


if __name__ == "__main__":
    main()
