"""Canned replies that understand the pipeline's prompts, for the mock backend.

A MockProvider answers each request with its reply function. A smoke run
needs one that answers every stage: generation needs parseable fills and
scores, extraction verbatim document sentences. canned_reply inspects
each request's tag and prompt and produces the smallest reply the
downstream parser accepts, all without network access; CannedProvider is
the MockProvider that answers with it. Replies are heuristic, not clever;
they exercise plumbing, not quality.

A segment or answer reply is the first sentence of the prompt's document
block, found with str.find at the template's fixed anchors: the leftmost
opening anchor and the first closing anchor after it. That is exactly
what the lazy DOTALL regex opening(.*?)closing matches, since a later
opening has no closing after it when the leftmost one has none, but
without a regex test at every character of the document.
"""

from __future__ import annotations

import re

from .providers import CompletionRequest, MockProvider
from .textutil import first_sentence

_SLOT_LINE = re.compile(r"^- slot (?P<slot>.+?) \(type (?P<type>.+?)\), currently: (?P<text>.+)$")
_COUNT = re.compile(r"Propose (\d+) alternative")
_ORIGINAL_Q = re.compile(r"^Original question: (.+)$", re.MULTILINE)
# a listed line, or a section's line, follows a line feed; the first of a list is found from the prompt's end
_LISTED = ("\n1. ", re.compile(r"\n(\d+)\. "))
_SECTION = ("\nQuestion 1:", re.compile(r"\nQuestion (\d+):"))


def _listed(prompt: str, marker: tuple[str, re.Pattern] = _LISTED) -> list[str]:
    """The text after each marker of the prompt's list, from its last marker numbered 1 on.

    A line of the question above the list may start with a number and ". " too; the list comes last.
    """
    first, numbered = marker
    text = "\n" + prompt
    start = text.rfind(first)
    return [] if start < 0 else numbered.split(text[start:])[2::2]


def _substitution(prompt: str) -> str:
    slots = []
    for line in prompt.splitlines():
        m = _SLOT_LINE.match(line.strip())
        if m:
            slots.append((m.group("slot"), m.group("type"), m.group("text")))
    if not slots:
        return "1."
    count_m = _COUNT.search(prompt)
    count = int(count_m.group(1)) if count_m else 1
    lines = []
    fills = [(slot, text) for slot, _, text in slots]
    lines.append("1. " + "; ".join(f"{s}={t}" for s, t in fills))
    if count > 1 and len(slots) > 1:
        # rotate values between slots sharing a type, a second distinct fill
        by_type: dict[str, list[int]] = {}
        for i, (_, etype, _) in enumerate(slots):
            by_type.setdefault(etype, []).append(i)
        swapped = [text for _, _, text in slots]
        rotated_any = False
        for idxs in by_type.values():
            if len(idxs) > 1:
                for dst, src in zip(idxs, idxs[1:] + idxs[:1]):
                    swapped[dst] = slots[src][2]
                rotated_any = True
        if rotated_any:
            lines.append(
                "2. " + "; ".join(f"{slots[i][0]}={swapped[i]}" for i in range(len(slots)))
            )
    return "\n".join(lines)


def _variation(prompt: str) -> str:
    m = _ORIGINAL_Q.search(prompt)
    question = m.group(1).strip() if m else "What does the reference material say?"
    return f"1. {question}"


def _similarity(prompt: str) -> str:
    """One numbered item per candidate that the prompt lists, each scored 10 on the line under it."""
    return "\n".join(f"{n}. It keeps the original structure and asks for the same kind of fact.\nScore (1-10): 10"
                     for n in range(1, len(_listed(prompt)) + 1))


def _strategy(prompt: str) -> str:
    """One section per question that the prompt lists, each of the same two steps and answer."""
    return "\n".join(f"Question {k}:\n1. Identify what the question is asking for. (decompositional)\n"
                     "2. Locate the fact that answers it in the reference material. (deductive)\n"
                     "Generated Answer: The answer is stated in the reference material."
                     for k in range(1, len(_listed(prompt, _SECTION)) + 1))


def _reference(prompt: str) -> str:
    """One section per strategy that the prompt lists, of one numbered passage per step listed in it."""
    passage = "The fact needed for this step is stated plainly in standard reference material."
    return "\n".join(f"Question {k}:" + "".join(f"\n{n}. {passage}" for n in range(1, len(_listed(steps)) + 1))
                     for k, steps in enumerate(_listed(prompt, _SECTION), start=1))


def _block(prompt: str, opening: str, closing: str) -> str | None:
    """The text between the leftmost opening and the first closing after it, or None."""
    start = prompt.find(opening)
    if start < 0:
        return None
    start += len(opening)
    end = prompt.find(closing, start)
    return None if end < 0 else prompt[start:end]


def _segment(prompt: str) -> str:
    block = _block(prompt, "<<<\n", "\n>>>")
    return (block and first_sentence(block)) or "No document provided."


def _answer(prompt: str) -> str:
    block = _block(prompt, "- A document or context:\n", "\n- A selected reasoning path:")
    span = (block and first_sentence(block)) or "The provided material does not state the answer."
    return f"The focused material states: {span} <answer>{span}</answer>"


_HANDLERS = {
    "substitution": _substitution,
    "variation": _variation,
    "similarity": _similarity,
    "strategy": _strategy,
    "reference": _reference,
    "segment": _segment,
    "answer": _answer,
}


def canned_reply(request: CompletionRequest) -> str:
    """The reply for one request, chosen by its tag; unknown tags get "OK"."""
    handler = _HANDLERS.get(request.tag)
    return "OK" if handler is None else handler(request.prompt)


class CannedProvider(MockProvider):
    """The CLI's mock backend: a MockProvider answering with canned_reply."""

    def __init__(self):
        super().__init__(canned_reply)
