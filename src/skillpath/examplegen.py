"""Synthesis of similar worked examples for a question template.

Candidates come from one of three construction modes: random pool fills,
provider-guided fills, or free-form template variations. One reply scores
them all, in one numbered item each. One more reply gives each survivor of
the similarity filter a reasoning strategy (typed steps plus an answer) in
a "Question k:" section, and a last reply one reference passage per step,
forming SimilarExamples ready for collection into a Γ.
"""

from __future__ import annotations

import logging
import random
import re
from enum import Enum
from typing import NamedTuple

from .decompose import QuestionTemplate, render_template
from .errors import (
    EmptyAnswer,
    ProviderError,
    UnknownSkill,
    UnparseableScore,
    UnparseableStrategy,
)
from .providers import CompletionRequest, Provider
from .resources import load_entity_pool, render_prompt
from .skills import ReasoningSkill, parse_skill, skill_catalog
from .textutil import ARTICLES, normalize_ws, squeeze_punct

log = logging.getLogger(__name__)

SIMILARITY_MIN = 1
SIMILARITY_MAX = 10


class ConstructionMode(Enum):
    RANDOM_FILL = "random-fill"
    GUIDED_FILL = "guided-fill"
    TEMPLATE_VARIATION = "template-variation"


class CandidateQuestion(NamedTuple):
    text: str
    mode: ConstructionMode
    similarity_score: int | None = None


class _ReasoningStrategy(NamedTuple):
    subquestions: tuple[str, ...]
    skills: tuple[ReasoningSkill, ...]


class ReasoningStrategy(_ReasoningStrategy):
    """Ordered subquestions with one reasoning skill per step."""

    __slots__ = ()

    def __new__(cls, subquestions: tuple[str, ...], skills: tuple[ReasoningSkill, ...]):
        subquestions, skills = tuple(subquestions), tuple(skills)
        if not skills:
            raise ValueError("a strategy needs at least one step")
        if len(subquestions) != len(skills):
            raise ValueError(f"{len(subquestions)} subquestions vs {len(skills)} skills")
        for s in skills:
            if not isinstance(s, ReasoningSkill):
                raise ValueError(f"not a taxonomy member: {s!r}")
        return super().__new__(cls, subquestions, skills)


class _SimilarExample(NamedTuple):
    question: str
    strategy: ReasoningStrategy
    reference_docs: tuple[str, ...]
    answer: str


class SimilarExample(_SimilarExample):
    __slots__ = ()

    def __new__(cls, question: str, strategy: ReasoningStrategy, reference_docs: tuple[str, ...], answer: str):
        reference_docs = tuple(reference_docs)
        if not question.strip():
            raise ValueError("example question is empty")
        if len(reference_docs) != len(strategy.subquestions):
            raise ValueError(
                f"{len(reference_docs)} reference docs vs "
                f"{len(strategy.subquestions)} subquestions"
            )
        if not answer.strip():
            raise EmptyAnswer("example has no answer text")
        return super().__new__(cls, question, strategy, reference_docs, answer)


_NUMBERED = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")
_STEP_WITH_SKILL = re.compile(r"^(?P<body>.*\S)\s*\((?P<skill>[^()]+)\)\s*[.:]?$")
_GENERATED_ANSWER = re.compile(r"Generated Answer:(?:\*\*)?\s*(.*)", re.IGNORECASE)
# a "Question k:" section line, bare or in ** emphasis; the empty group is its text, as the rest is ignored
_SECTION = re.compile(r"\s*(?:\*\*)?Question\s+(\d+):()", re.IGNORECASE)
_INT = re.compile(r"\d+")
_DECIMAL = re.compile(r"\d[.,]\d")
# a scale written beside a score, its top bound captured: "1-10", "1 to 10", "/10", "out of 10";
# the lookahead lets the search pass other characters with one test each
_SCALE = re.compile(r"(?=[\d/o])(?:\d+\s*(?:-|–|\bto\b)|/|\bout of)\s*(\d+)")
# a "Score" or "Rating" label, what lies between it and the first integer after it, and that integer
_SCORE_LABEL = re.compile(r"\b(?:score|rating)\b(\D*)(\d+)", re.IGNORECASE)
# what lies between a label and its integer when the label outranks one with words between
_TIGHT_LABEL = re.compile(r"\W*(?:of\W*)?", re.IGNORECASE)


def generate_candidates(
    template: QuestionTemplate,
    mode: ConstructionMode,
    count: int,
    provider: Provider | None = None,
    rng: random.Random | None = None,
    pool: dict[str, tuple[str, ...]] | None = None,
) -> list[CandidateQuestion]:
    """Produce up to `count` new questions from a template.

    random_fill draws replacement entities from the bundled pool with a
    seeded RNG and needs no provider. The other two modes ask the provider
    for fills or variations. Duplicates (whitespace and punctuation
    insensitive) are removed before anything gets scored.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if mode is ConstructionMode.RANDOM_FILL:
        texts = _random_fill(template, count, rng or random.Random(0), pool)
    elif mode is ConstructionMode.GUIDED_FILL:
        texts = _guided_fill(template, count, _require_provider(provider, mode))
    else:
        texts = _template_variation(template, count, _require_provider(provider, mode))

    seen: set[str] = set()
    out: list[CandidateQuestion] = []
    for text in texts:
        key = squeeze_punct(text).casefold()
        if key and key not in seen:
            seen.add(key)
            out.append(CandidateQuestion(text=text, mode=mode))
    return out


def _require_provider(provider: Provider | None, mode: ConstructionMode) -> Provider:
    if provider is None:
        raise ValueError(f"mode {mode.value} requires a provider")
    return provider


def _random_fill(
    template: QuestionTemplate,
    count: int,
    rng: random.Random,
    pool: dict[str, tuple[str, ...]] | None,
) -> list[str]:
    pool = pool if pool is not None else load_entity_pool()
    texts = []
    for _ in range(count):
        fills: dict[str, str] = {}
        for p in template.placeholders:
            options = [e for e in pool.get(p.entity_type, []) if e != p.entity_text]
            # no alternative of this type in the pool: keep the original
            entity = rng.choice(options) if options else p.entity_text
            fills[p.slot] = p.spell(entity)
        texts.append(render_template(template, fills))
    return texts


def _slot_lines(template: QuestionTemplate) -> str:
    lines = []
    for p in template.placeholders:
        lines.append(f"- slot {p.slot} (type {p.entity_type}), currently: {p.entity_text}")
    return "\n".join(lines)


def _guided_fill(template: QuestionTemplate, count: int, provider: Provider) -> list[str]:
    prompt = render_prompt(
        "entity_substitution",
        template_text=template.template_text,
        slot_lines=_slot_lines(template),
        count=str(count),
    )
    reply = provider.complete(CompletionRequest(prompt, tag="substitution")).text
    slots = {p.slot: p for p in template.placeholders}
    texts = []
    for line in reply.splitlines():
        m = _NUMBERED.match(line)
        if not m:
            continue
        fills: dict[str, str] = {}
        for part in m.group(2).split(";"):
            if "=" not in part:
                continue
            key, _, value = part.partition("=")
            key = normalize_ws(key)
            value = value.strip()
            if key in slots and value:
                # a value that brings its own article keeps it instead of the slot's
                own_article = value.split()[0].lower() in ARTICLES
                fills[key] = value if own_article else slots[key].spell(value)
        if fills.keys() == slots.keys():
            texts.append(render_template(template, fills))
        else:
            log.debug("dropping malformed fill line: %r", line)
    return texts


def _template_variation(template: QuestionTemplate, count: int, provider: Provider) -> list[str]:
    prompt = render_prompt(
        "template_variation",
        question=template.original,
        template_text=template.template_text,
        count=str(count),
    )
    reply = provider.complete(CompletionRequest(prompt, tag="variation")).text
    return [m[2].strip().strip('"') for m in map(_NUMBERED.match, reply.splitlines()) if m]


def score_similarity(item: str) -> int:
    """The similarity score written in one item of a reply, on the 1 to 10 scale.

    Once the scale written on a line ("1-10", "/10", "out of 10") is taken
    out, the score is the first integer after a "Score" or "Rating" label.
    A label that reaches its integer through punctuation or "of" ("Score:
    8", "a score of 8") outranks one with words between ("Score for
    similarity: 8", "score it high, as both name 2"), and every labelled
    line of the higher rank must give it alike. With no label, it is the
    last integer of the last line that holds an integer. An ambiguous item
    is refused, not guessed: labelled lines of one rank that differ, a
    decimal, a scale not to 10, no integer but the scale's, or a score
    outside it is UnparseableScore.
    """
    lines = [(line, _SCALE.sub(" ", line)) for line in reversed(item.splitlines())]
    labels = [(line, label) for line, unscaled in lines if (label := _SCORE_LABEL.search(unscaled))]
    tight = [(line, label) for line, label in labels if _TIGHT_LABEL.fullmatch(label[1])]
    labelled = [(line, [label[2]]) for line, label in tight or labels]
    if len({numbers[0] for _, numbers in labelled}) > 1:
        raise UnparseableScore(f"labelled lines give different scores: {item[:120]!r}")
    last, numbers = (labelled or [(line, _INT.findall(unscaled)) for line, unscaled in lines if _INT.search(line)]
                     or [("", [])])[0]
    if not numbers or _DECIMAL.search(last) or any(top != "10" for top in _SCALE.findall(last)):
        raise UnparseableScore(f"no score on the 1 to 10 scale in reply: {item[:120]!r}")
    try:
        score = int(numbers[-1])
    except ValueError as exc:  # more digits than int() converts
        raise UnparseableScore(f"a score of {len(numbers[-1])} digits is outside [1, 10]") from exc
    if not SIMILARITY_MIN <= score <= SIMILARITY_MAX:
        raise UnparseableScore(f"score {score} outside [1, 10]")
    return score


def score_candidates(
    original: str, candidates: list[CandidateQuestion], provider: Provider
) -> list[CandidateQuestion]:
    """Attach a similarity score to each candidate, all from one provider call (none for no candidate).

    The prompt lists the candidates numbered 1 to k. A candidate's item is its numbered reply line and
    the unnumbered lines under it, as _sections reads them.
    """
    if not candidates:
        return []
    listed = "\n".join(f"{n}. {c.text}" for n, c in enumerate(candidates, start=1))
    prompt = render_prompt("similarity_scoring", original_question=original, candidate_questions=listed)
    reply = provider.complete(CompletionRequest(prompt, tag="similarity")).text
    items = _sections(reply, _NUMBERED, len(candidates),
                      UnparseableScore, "similarity reply does not number one item per candidate")
    return [c._replace(similarity_score=score_similarity(item)) for c, item in zip(candidates, items)]


def _sections(reply: str, head: re.Pattern, count: int, error: type[ProviderError], refusal: str) -> list[str]:
    """The reply cut at its head lines, each section a head's text and the lines under it, text before the first
    ignored. Heads numbered other than exactly 1 to count in order raise `error` with `refusal` as its message."""
    sections = []  # per head line: its number, its text, the lines under it
    for line in reply.splitlines():
        if m := head.match(line):
            sections.append(list(m.groups()))
        elif sections:
            sections[-1].append(line)
    sections = sections or [["1", reply]]  # a reply with no head line may be its one section whole
    if [section[0] for section in sections] != [str(n) for n in range(1, count + 1)]:
        raise error(f"{refusal}: {reply[:120]!r}")
    return ["\n".join(section[1:]) for section in sections]


def filter_candidates(candidates: list[CandidateQuestion], delta: int) -> list[CandidateQuestion]:
    """Keep candidates whose score meets the threshold, order preserved.

    The comparison is score >= delta. Unscored candidates are a caller
    bug and raise ValueError.
    """
    if not SIMILARITY_MIN <= delta <= SIMILARITY_MAX:
        raise ValueError(f"delta must lie in [1, 10], got {delta}")
    for c in candidates:
        if c.similarity_score is None:
            raise ValueError(f"candidate not scored: {c.text!r}")
    return [c for c in candidates if c.similarity_score >= delta]


def build_strategy(questions: list[str], provider: Provider) -> list[tuple[ReasoningStrategy, str]]:
    """Generate a reasoning strategy and an answer for each question, all from one provider call.

    The prompt lists the questions, each on a "Question k:" line; the reply heads one section per question
    the same way, of numbered steps that each end in a parenthesized skill label, then a Generated Answer
    line. Other section lines, or a step without a known skill, are UnparseableStrategy; prose is ignored.
    """
    listed = "\n".join(f'Question {n}: "{question}"' for n, question in enumerate(questions, start=1))
    prompt = render_prompt("strategy_generation", skill_catalog=skill_catalog(), questions=listed)
    reply = provider.complete(CompletionRequest(prompt, tag="strategy")).text
    return [parse_strategy_reply(section) for section in _sections(
        reply, _SECTION, len(questions), UnparseableStrategy, "strategy reply does not head one section per question")]


def parse_strategy_reply(reply: str) -> tuple[ReasoningStrategy, str]:
    subquestions: list[str] = []
    skills: list[ReasoningSkill] = []
    answer = ""
    m = _GENERATED_ANSWER.search(reply)
    if m:
        answer = m.group(1).strip().strip('"').strip()
    step_region = reply[: m.start()] if m else reply
    for line in step_region.splitlines():
        numbered = _NUMBERED.match(line)
        if not numbered:
            continue
        with_skill = _STEP_WITH_SKILL.match(numbered.group(2))
        if not with_skill:
            raise UnparseableStrategy(f"step {numbered.group(1)} names no skill: {line.strip()!r}")
        try:
            skill = parse_skill(with_skill.group("skill"))
        except UnknownSkill as exc:
            raise UnparseableStrategy(f"step {numbered.group(1)}: {exc}") from exc
        subquestions.append(with_skill.group("body").strip())
        skills.append(skill)
    if not skills:
        raise UnparseableStrategy("reply contains no numbered steps")
    return ReasoningStrategy(tuple(subquestions), tuple(skills)), answer


def build_reference_docs(strategies: list[ReasoningStrategy], provider: Provider) -> list[list[str]]:
    """One short reference passage per step of each strategy, all from one provider call.

    The prompt lists each strategy's subquestions, numbered in step order, under its own "Question k:"
    line. The reply must head one section per strategy the same way and, in each, number one non-empty
    passage per step, exactly 1 to n in order, or it is a ProviderError; unnumbered lines are ignored.
    """
    listed = "\n".join(f"Question {k}:" + "".join(f"\n{n}. {subq}" for n, subq in enumerate(s.subquestions, start=1))
                       for k, s in enumerate(strategies, start=1))
    prompt = render_prompt("reference_document", subquestions=listed)
    reply = provider.complete(CompletionRequest(prompt, tag="reference")).text
    sections = _sections(reply, _SECTION, len(strategies),
                         ProviderError, "reference reply does not head one section per question")
    numbered = [[m.groups() for m in map(_NUMBERED.match, section.splitlines()) if m] for section in sections]
    for k, (strategy, section, items) in enumerate(zip(strategies, sections, numbered), start=1):
        if [n for n, _ in items] != [str(n) for n in range(1, len(strategy.subquestions) + 1)]:
            raise ProviderError(f"reference reply section {k} does not number one passage per step, "
                                f"1 to {len(strategy.subquestions)}: {section[:120]!r}")
    return [[passage for _, passage in items] for items in numbered]


def synthesize_example(questions: list[str], provider: Provider) -> list[SimilarExample]:
    """Strategies, reference docs and assembly for candidate questions, in two provider calls."""
    strategies = build_strategy(questions, provider)
    docs = build_reference_docs([strategy for strategy, _ in strategies], provider)
    return [SimilarExample(q, strategy, d, answer) for q, (strategy, answer), d in zip(questions, strategies, docs)]
