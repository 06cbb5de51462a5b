from __future__ import annotations

import pytest

import skillpath.answerer as answerer_module
import skillpath.textutil as textutil
from skillpath.answerer import (
    answer,
    extract_answer_span,
    extract_relevant_segment,
    format_prompt,
    select_for,
)
from skillpath.collection import build_collection
from skillpath.errors import ReplayMiss, SegmentNotInDocument
from skillpath.examplegen import ReasoningStrategy, SimilarExample
from skillpath.matcher import SelectionMode
from skillpath.providers import (
    CompletionResult,
    MockProvider,
    Provider,
    RecordingProvider,
    ReplayProvider,
    TokenUsage,
)
from skillpath.skills import ReasoningSkill
from skillpath.textutil import Passage

from conftest import replies

S = ReasoningSkill

DOC = (
    "The Eiffel Tower was completed in 1889. "
    "It stands 330 metres tall. "
    "The Empire State Building was completed in 1931."
)


def extract(provider):
    """The segment extract_relevant_segment picks from DOC, and the texts of its calls' results."""
    segment, results = extract_relevant_segment(Passage.of(DOC), S.DEDUCTIVE, provider, question="How tall?")
    return segment, [r.text for r in results]


def test_extraction_returns_document_sentences_verbatim():
    provider = MockProvider(lambda request: "It stands 330 metres tall.")
    assert extract(provider) == ("It stands 330 metres tall.", ["It stands 330 metres tall."])


def test_extraction_normalizes_case_and_spacing_back_to_source():
    provider = MockProvider(lambda request: "the  eiffel tower was completed in 1889.")
    segment, _ = extract(provider)
    assert segment == "The Eiffel Tower was completed in 1889."


def test_extraction_preserves_reply_order_of_sentences():
    provider = MockProvider(lambda request: (
        "The Empire State Building was completed in 1931. "
        "The Eiffel Tower was completed in 1889."
    ))
    segment, _ = extract(provider)
    assert segment == (
        "The Empire State Building was completed in 1931. "
        "The Eiffel Tower was completed in 1889."
    )


def test_extraction_retries_once_then_fails_loudly():
    provider = MockProvider(replies("I made this sentence up.", "It stands 330 metres tall."))
    assert extract(provider) == (
        "It stands 330 metres tall.", ["I made this sentence up.", "It stands 330 metres tall."]
    )

    stubborn = MockProvider(replies("Invented one.", "Invented two.", "unused"))
    with pytest.raises(SegmentNotInDocument, match="Invented two"):
        extract(stubborn)

    # a reply that holds no sentence at all is retried the same way
    assert extract(MockProvider(replies("", "It stands 330 metres tall."))) == (
        "It stands 330 metres tall.", ["", "It stands 330 metres tall."]
    )
    with pytest.raises(SegmentNotInDocument, match="^extraction reply is not made of document sentences: ' '$"):
        extract(MockProvider(replies("", " ", "unused")))


def example_for(skills, subquestions=None):
    n = len(skills)
    return SimilarExample(
        question="Which is older, the Brooklyn Bridge or the Golden Gate Bridge?",
        strategy=ReasoningStrategy(
            tuple(subquestions or (f"step {i + 1}" for i in range(n))), tuple(skills)
        ),
        reference_docs=tuple(f"note {i + 1}" for i in range(n)),
        answer="the Brooklyn Bridge",
    )


def test_prompt_contains_all_guidance_blocks():
    example = example_for([S.DEDUCTIVE, S.ANALOGICAL], ["Find both dates", "Compare them"])
    prompt = format_prompt("Which is taller?", ["seg one.", "seg two."], example)
    assert "Which is taller?" in prompt
    assert "seg one.\nseg two." in prompt
    assert "1. Find both dates (deductive)" in prompt
    assert "2. Compare them (analogical)" in prompt
    assert "deductive, analogical" in prompt
    assert "Similar question: Which is older, the Brooklyn Bridge" in prompt
    assert "- note 1" in prompt
    assert "Answer: the Brooklyn Bridge" in prompt


def test_answer_span_takes_the_last_marker():
    text = "Maybe <answer>Paris</answer>. No, wait. <answer>Lyon</answer> is right."
    assert extract_answer_span(text) == "Lyon"
    assert extract_answer_span("A bare completion with no markers") == (
        "A bare completion with no markers"
    )


def test_answer_collects_trace_and_usage():
    replies = {
        S.DEDUCTIVE.display_name: "The Eiffel Tower was completed in 1889.",
        S.INDUCTIVE.display_name: "It stands 330 metres tall.",
    }

    def reply(request):
        # reply by skill, not by call order
        if request.tag == "answer":
            return "Given the segments, the height wins. <answer>the Eiffel Tower</answer>"
        (text,) = [text for name, text in replies.items() if f"step: {name} (" in request.prompt]
        return text

    provider = RecordingProvider(MockProvider(reply))
    example = example_for([S.DEDUCTIVE, S.INDUCTIVE])
    trace = answer("Which is taller?", DOC, example, provider)
    assert trace.answer == "the Eiffel Tower"
    assert trace.focused_segments == [
        "The Eiffel Tower was completed in 1889.",
        "It stands 330 metres tall.",
    ]
    assert "Given the segments" in trace.completion
    # three completions, all metered
    entries = provider.transcript.entries
    assert len(entries) == 3
    assert trace.usage == sum((e.result.usage for e in entries), TokenUsage.zero())
    assert trace.usage.total_tokens > 0
    assert trace.latency_ms >= 0.0
    assert trace.prompt.count("seg") or trace.prompt  # prompt captured verbatim


class _RetriedStep(Provider):
    """Two steps' extractions, the deductive one retried, then the answer."""

    REPLY = {("deductive", 1): "I made this sentence up.", ("deductive", 2): "It stands 330 metres tall.",
             ("inductive", 1): "The Eiffel Tower was completed in 1889.",
             ("answer", 1): "<answer>330 metres</answer>"}
    LATENCY = {("deductive", 1): 0.1, ("deductive", 2): 0.2, ("inductive", 1): 0.6, ("answer", 1): 0.4}

    def __init__(self):
        self.calls: list[tuple[str, int]] = []
        self.results: list[CompletionResult] = []

    def _complete(self, request):
        if request.tag == "answer":
            step = "answer"
        else:
            step = "deductive" if f"step: {S.DEDUCTIVE.display_name} (" in request.prompt else "inductive"
        call = step, 1 + sum(step == made for made, _ in self.calls)
        latency = self.LATENCY[call]
        self.calls.append(call)
        self.results.append(CompletionResult(self.REPLY[call], TokenUsage.of(round(latency * 100), call[1]),
                                             latency))
        return self.results[-1]


def test_answer_sums_every_call_of_its_steps_in_step_order():
    provider = _RetriedStep()
    trace = answer("How tall?", DOC, example_for([S.DEDUCTIVE, S.INDUCTIVE]), provider)
    assert trace.focused_segments == [
        "It stands 330 metres tall.",
        "The Eiffel Tower was completed in 1889.",
    ]
    # one step after the other, in step order, and a retried extraction counts both of its calls
    assert provider.calls == [("deductive", 1), ("deductive", 2), ("inductive", 1), ("answer", 1)]
    assert trace.usage == sum((r.usage for r in provider.results), TokenUsage.zero())
    # step order, then call order within a step, then the final answer call;
    # summed in another order, the float would differ
    assert trace.latency_ms == 0.0 + 0.1 + 0.2 + 0.6 + 0.4
    assert trace.latency_ms != 0.0 + 0.6 + 0.1 + 0.2 + 0.4


def test_answer_splits_its_document_once(monkeypatch):
    example = example_for([S.DEDUCTIVE, S.INDUCTIVE, S.ANALOGICAL])
    provider = MockProvider(replies(*["It stands 330 metres tall."] * 3, "<answer>330 metres</answer>"))
    split_texts = []
    real_split = textutil.split_sentences

    def counting_split(text):
        split_texts.append(text)
        return real_split(text)

    for module in (textutil, answerer_module):
        monkeypatch.setattr(module, "split_sentences", counting_split, raising=False)
    trace = answer("How tall?", DOC, example, provider)
    assert len(trace.focused_segments) == 3
    assert split_texts.count(DOC) == 1


def test_answer_splits_only_the_line_that_holds_the_reply(monkeypatch):
    example = example_for([S.DEDUCTIVE, S.INDUCTIVE])
    docs = ["The Eiffel Tower was completed in 1889.", "It stands 330 metres tall.",
            "The Empire State Building was completed in 1931. It stands 443 metres tall."]
    reply = "It stands 443 metres tall."
    provider = MockProvider(replies(reply, reply, "<answer>443 metres</answer>"))
    split_texts = []
    real_split = textutil.split_sentences

    def counting_split(text):
        split_texts.append(text)
        return real_split(text)

    for module in (textutil, answerer_module):
        monkeypatch.setattr(module, "split_sentences", counting_split, raising=False)
    trace = answer("How tall?", "\n\n".join(docs), example, provider)
    assert trace.focused_segments == [reply, reply]
    assert [text for text in split_texts if text != reply] == [docs[2]]


def test_answer_respects_explicit_example_index():
    collection = build_collection(
        [example_for([S.DEDUCTIVE]), example_for([S.ABDUCTIVE])]
    )
    provider = RecordingProvider(
        MockProvider(replies("It stands 330 metres tall.", "<answer>330 metres</answer>"))
    )
    trace = answer("How tall?", DOC, collection.examples[1], provider)
    segment_prompts = [
        e.request.prompt for e in provider.transcript.entries if e.request.tag == "segment"
    ]
    assert len(segment_prompts) == 1
    assert S.ABDUCTIVE.display_name in segment_prompts[0]
    assert S.DEDUCTIVE.display_name not in segment_prompts[0]
    assert "1. step 1 (abductive)" in trace.prompt


def test_stage_failures_name_their_stage():
    bad_extractor = MockProvider(replies("nope.", "still nope.", "unused"))
    with pytest.raises(SegmentNotInDocument, match="^extraction reply is not made of document sentences"):
        answer("q?", DOC, example_for([S.DEDUCTIVE]), bad_extractor)
    # a provider's own error names the tag of the request it failed, and arrives unwrapped:
    # a replay that holds the segment call but not the answer call misses on the answer call
    recorder = RecordingProvider(MockProvider(replies("It stands 330 metres tall.", "<answer>330 metres</answer>")))
    answer("q?", DOC, example_for([S.DEDUCTIVE]), recorder)
    segment_only = ReplayProvider({e.fingerprint: e.result for e in recorder.transcript.entries
                                   if e.request.tag == "segment"})
    miss = r"^no transcript entry for request fingerprint [0-9a-f]{64} \(tag 'answer'\)$"
    with pytest.raises(ReplayMiss, match=miss):
        answer("q?", DOC, example_for([S.DEDUCTIVE]), segment_only)


@pytest.mark.parametrize("tag", ["segment", "answer"])
def test_a_value_error_is_a_bug_and_propagates_unwrapped(tag):
    def reply(request):
        if request.tag == tag:
            raise ValueError(f"bug in the {tag} reply")
        return "It stands 330 metres tall."

    with pytest.raises(ValueError, match=f"bug in the {tag} reply"):
        answer("How tall?", DOC, example_for([S.DEDUCTIVE]), MockProvider(reply))


def test_select_for_reports_breakdowns(worked_collection):
    match = select_for(worked_collection, SelectionMode.FULL)
    assert match.selected_index == 2
    assert len(match.per_example) == 3
