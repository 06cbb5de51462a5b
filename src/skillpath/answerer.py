"""Guided answering: apply a selected example's skill path to a document.

For each step of the chosen strategy the provider extracts the document
sentences most relevant to that step's skill; the focused segments, the
reasoning path and the worked example then frame one final completion.
Each extraction returns the results of its calls, and the trace sums
them with the final call's: it keeps everything downstream evaluation
needs, including the full completion text, the token usage and the
latency of every call.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .collection import ExampleCollection
from .errors import SegmentNotInDocument
from .examplegen import SimilarExample
from .matcher import MatchResult, SelectionMode, select_best
from .providers import CompletionRequest, CompletionResult, Provider, TokenUsage
from .resources import render_prompt
from .skills import ReasoningSkill
from .textutil import ANSWER_SPAN, Passage, sentence_key, split_sentences


class AnswerTrace(NamedTuple):
    """Everything recorded about one guided answering run."""

    question: str
    focused_segments: list[str]
    prompt: str
    answer: str
    completion: str
    usage: TokenUsage
    latency_ms: float


def extract_relevant_segment(
    passage: Passage, skill: ReasoningSkill, provider: Provider, *, question: str
) -> tuple[str, list[CompletionResult]]:
    """Have the provider pick the document sentences serving one skill.

    The reply must consist of sentences present in the passage, compared
    casefolded with collapsed whitespace. A reply that fails the check is
    retried once; failing again raises SegmentNotInDocument. Returns the
    matching passage sentences in the reply's order, joined, and the
    results of the one or two calls made, in call order.
    """
    prompt = render_prompt(
        "segment_extraction",
        question_line=f"\nOriginal question: {question}",
        skill_name=skill.display_name,
        skill_description=skill.description,
        document=passage.text,
    )
    results = []
    for _ in range(2):
        results.append(provider.complete(CompletionRequest(prompt, tag="segment")))
        picked = _match_sentences(results[-1].text, passage)
        if picked is not None:
            return " ".join(picked), results
    raise SegmentNotInDocument(
        f"extraction reply is not made of document sentences: {results[-1].text[:120]!r}"
    )


# a reply line: a list marker, then its text enclosed in quotes or ** emphasis, or bare
_DRESSED = re.compile(r'^[^\S\n]*(?:(?:[-*•]|\d+[.)])[^\S\n]+)?(?:\*\*(.+)\*\*|"(.+)"|“(.+)”|(.*?))[^\S\n]*$',
                      re.MULTILINE)


def _match_sentences(reply: str, passage: Passage) -> list[str] | None:
    """The passage's own sentences the reply is made of, or None; a miss is looked up again, each line undressed."""
    return _lookup(reply, passage) or _lookup(_DRESSED.sub(r"\1\2\3\4", reply), passage)


def _lookup(text: str, passage: Passage) -> list[str] | None:
    picked = [passage.sentence(sentence_key(c)) for c in split_sentences(text)]
    return picked if picked and None not in picked else None


def format_prompt(question: str, focused_segments: list[str], example: SimilarExample) -> str:
    """Assemble the final guided-answer prompt around the example's strategy."""
    strategy = example.strategy
    path_lines = [
        f"{i + 1}. {subq} ({skill.canonical})"
        for i, (subq, skill) in enumerate(zip(strategy.subquestions, strategy.skills))
    ]
    demo_lines = [f"Similar question: {example.question}", "Reference notes:"]
    demo_lines.extend(f"- {doc}" for doc in example.reference_docs)
    demo_lines.append(f"Answer: {example.answer}")
    return render_prompt(
        "guided_answer",
        question=question,
        documents="\n".join(focused_segments),
        reasoning_path="\n".join(path_lines),
        skills=", ".join(s.canonical for s in strategy.skills),
        demonstration="\n".join(demo_lines),
    )


def extract_answer_span(completion: str) -> str:
    """The final answer: the last <answer> span, or the whole completion."""
    spans = ANSWER_SPAN.findall(completion)
    if spans:
        return spans[-1].strip()
    return completion.strip()


def answer(question: str, document: str, example: SimilarExample, provider: Provider) -> AnswerTrace:
    """Run the guided path of one selected example against one document.

    The trace's usage and latency sum the results of every step's
    extraction, in step order, and the final call's.
    Errors propagate as raised: a failed extraction is SegmentNotInDocument,
    a bad template a StorageError naming its file, and a ProviderError
    names the tag of the request that failed.
    """
    # casefolded once here, shared by every step's extraction, which splits only the lines it needs
    passage = Passage.of(document)
    steps = [extract_relevant_segment(passage, skill, provider, question=question)
             for skill in example.strategy.skills]
    segments = [segment for segment, _ in steps]
    prompt = format_prompt(question, segments, example)
    result = provider.complete(CompletionRequest(prompt, tag="answer"))
    completion = result.text

    # summed in step order, then call order within a step, then the answer call
    results = [r for _, step_results in steps for r in step_results] + [result]
    return AnswerTrace(
        question=question,
        focused_segments=segments,
        prompt=prompt,
        answer=extract_answer_span(completion),
        completion=completion,
        usage=sum((r.usage for r in results), TokenUsage.zero()),
        latency_ms=sum((r.latency_ms for r in results), 0.0),
    )


def select_for(
    collection: ExampleCollection, mode: SelectionMode, seed: int | str | None = None
) -> MatchResult:
    """Pick the example whose skill path answer() follows, with the breakdown."""
    return select_best(collection, mode, seed)

