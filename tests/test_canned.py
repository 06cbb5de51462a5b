from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpath import canned
from skillpath.canned import CannedProvider, canned_reply
from skillpath.examplegen import CandidateQuestion, ConstructionMode, score_candidates
from skillpath.providers import CompletionRequest
from skillpath.resources import render_prompt
from skillpath.textutil import first_sentence

from conftest import TRICKY

# ------------------------------------------------------- reference handlers
# The regex handlers that _segment and _answer replaced, kept as oracles.

_DOC_BLOCK = re.compile(r"<<<\n(.*?)\n>>>", re.DOTALL)
_CONTEXT_BLOCK = re.compile(r"- A document or context:\n(.*?)\n- A selected reasoning path:", re.DOTALL)


def reference_segment(prompt: str) -> str:
    m = _DOC_BLOCK.search(prompt)
    return (m and first_sentence(m.group(1))) or "No document provided."


def reference_answer(prompt: str) -> str:
    m = _CONTEXT_BLOCK.search(prompt)
    span = (m and first_sentence(m.group(1))) or "The provided material does not state the answer."
    return f"The focused material states: {span} <answer>{span}</answer>"


# prompts made of the anchors, their parts and sentence text, in any order
_PIECES = st.sampled_from([
    "<<<\n", "\n>>>", "<<<", ">>>", "<", ">", "\n", "\r\n", "\r",
    "- A document or context:\n", "\n- A selected reasoning path:", "- A document or context:",
    "- A selected reasoning path:", "\nOriginal question: ", "Tower stands. ", "It is tall.", " ",
])
_PROMPTS = st.lists(_PIECES | TRICKY, max_size=30).map("".join)
_QUESTION = "\nOriginal question: Is <<<\n>>> a - A document or context:\n?\n"


@settings(derandomize=True, database=None)
@given(_PROMPTS)
@example("Document: Tower stands. It is tall.")  # no opening anchor
@example("<<<\nTower stands. It is tall.")  # opening without closing
@example("- A document or context:\nTower stands. It is tall.")
@example("<<<\n>>>")
@example("<<<\n\n>>>")
@example("<<<\n \t\r\n>>>")  # a whitespace-only block
@example("- A document or context:\n- A selected reasoning path:")
@example("- A document or context:\n\n- A selected reasoning path:")
@example("- A document or context:\n \t\x0c\n- A selected reasoning path:")
@example("<<<\nTower stands.\n>>>\n<<<\nIt is tall.\n>>>")  # two blocks
@example("<<<\n \n>>>\n<<<\nIt is tall.\n>>>")
@example("- A document or context:\n\n- A selected reasoning path:\n"
         "- A document or context:\nB.\n- A selected reasoning path:")
@example("\n>>> Tower stands. <<<\nIt is tall.\n>>>")  # closing before the opening
@example("\n- A selected reasoning path: A. - A document or context:\nB.\n- A selected reasoning path:")
@example(_QUESTION + "<<<\nTower stands.\n>>>")  # anchors inside the question line
@example(_QUESTION + "- A document or context:\nTower stands.\n- A selected reasoning path:")
@example("<<<\r\nTower stands.\r\n>>>\n<<<\nIt is tall.\r\n>>>")
@example("- A document or context:\r\nA.\r\n- A selected reasoning path:")
def test_segment_and_answer_equal_the_regex_reference(prompt):
    assert canned._segment(prompt) == reference_segment(prompt)
    assert canned._answer(prompt) == reference_answer(prompt)


def test_the_bundled_templates_carry_the_anchors_the_mock_finds(uncached_loaders):
    document = "The tower stands in Paris. It was built in 1889."
    segment = render_prompt(
        "segment_extraction",
        question_line="\nOriginal question: Where is the tower?",
        skill_name="Deductive reasoning",
        skill_description="draw a conclusion from stated facts",
        document=document,
    )
    answer = render_prompt(
        "guided_answer",
        question="Where is the tower?",
        documents=document,
        reasoning_path="1. Where is the tower? (deductive)",
        skills="deductive",
        demonstration="Similar question: Where is the bridge?",
    )
    first = "The tower stands in Paris."
    assert canned_reply(CompletionRequest(segment, tag="segment")) == first
    assert canned_reply(CompletionRequest(answer, tag="answer")) == (
        f"The focused material states: {first} <answer>{first}</answer>"
    )


# ---------------------------------------------------- listed items

# a corpus question may hold a line break, and a line of it may start with a number and ". "
NUMBERED_QUESTIONS = {
    "one-line": "Which is taller, the Eiffel Tower or Big Ben?",
    "line-two": "Which is taller:\n2. the Eiffel Tower or Big Ben?",
    "line-one": "Which is taller:\n1. the Eiffel Tower or Big Ben?",
    "lines-one-two": "Which is taller:\n1. the Eiffel Tower\n2. Big Ben?",
    "huge-number": "Which is taller:\n" + "9" * 5000 + ". the Eiffel Tower or Big Ben?",
}


@pytest.mark.parametrize("question", NUMBERED_QUESTIONS.values(), ids=NUMBERED_QUESTIONS)
@pytest.mark.parametrize("k", [1, 3])
def test_the_mock_scores_one_item_per_candidate_whatever_lines_the_question_numbers(question, k):
    candidates = [CandidateQuestion(f"Which is older, place {n}?", ConstructionMode.RANDOM_FILL) for n in range(k)]
    scored = score_candidates(question, candidates, CannedProvider())
    assert [c.similarity_score for c in scored] == [10] * k
